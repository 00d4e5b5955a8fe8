(** The resilience layer around switched re-executions.

    The paper's verifier treats every aborted switched run as a terminal
    verdict and lets any unexpected exception kill the whole session.
    This module centralizes the counter-measures:

    - {b adaptive budget escalation}: a [Budget_exhausted] run is
      retried with a grown step budget (see {!Exom_util.Backoff}) before
      the abort is accepted — a tight timer must not masquerade as "the
      switch hangs the program";
    - {b circuit breaker}: after [breaker_threshold] {e consecutive}
      aborted switched runs of one static predicate in a session, that
      predicate is no longer re-verified — its verifications are skipped
      outright (ruled NOT_ID) instead of burning budget on a predicate
      whose switches never complete;
    - {b containment}: exceptions escaping the interpreter (e.g.
      injected by {!Exom_interp.Chaos}) are captured and converted into
      failures, never propagated.

    Every skipped, aborted, retried, or captured verification is
    accounted for in {!stats} and logged in the failure journal, so a
    degraded localization is distinguishable from a clean one. *)

(** Why one verification produced no (or only a degraded) verdict. *)
type verify_failure =
  | Run_crashed of string  (** final attempt crashed in the interpreter *)
  | Run_budget_exhausted  (** still out of budget after every escalation *)
  | Breaker_open of int  (** skipped: the breaker for this sid is open *)
  | Captured of string  (** unexpected exception, converted not raised *)

val failure_to_string : verify_failure -> string

(** A compact injective codec for ledger checkpoints;
    [failure_of_code (failure_code f) = Some f]. *)
val failure_code : verify_failure -> string

val failure_of_code : string -> verify_failure option

type policy = {
  backoff : Exom_util.Backoff.t;  (** budget escalation ladder *)
  breaker_threshold : int;
      (** consecutive aborts of one static predicate that open its
          breaker; [max_int] disables the breaker *)
}

(** {!Exom_util.Backoff.default}, breaker at 8. *)
val default_policy : policy

(** A policy with no retries and no breaker — the pre-resilience
    behaviour, useful for differential tests. *)
val strict_policy : policy

(** Mutable per-session accounting.  Invariant maintained by
    {!execute}: [completed + aborted] equals the number of re-executions
    actually performed (= [Session.verifications]); [breaker_skips]
    perform no re-execution and are counted separately. *)
type stats = {
  mutable completed : int;  (** re-executions that ran to termination *)
  mutable aborted : int;  (** re-executions that crashed / ran out *)
  mutable retried : int;  (** escalation re-attempts (subset of runs) *)
  mutable breaker_trips : int;  (** breakers that opened *)
  mutable breaker_skips : int;  (** verifications skipped while open *)
  mutable captured : int;  (** exceptions contained (runs or analysis) *)
}

(** An independent copy (reports snapshot it; the live record keeps
    counting). *)
val snapshot : stats -> stats

type t

(** A worker-local accounting view for the parallel scheduler: stats
    and journal entries accumulate privately per pool task while the
    circuit-breaker table stays shared on the guard (the batch planner
    serializes all runs of one sid into one task, so breaker records
    are never mutated concurrently).  Shards are merged back with
    {!absorb} in submission order, which keeps the session's journal —
    and therefore reports — identical regardless of the job count. *)
type shard

val new_shard : unit -> shard
val shard_stats : shard -> stats

(** [absorb t shard] folds a worker's stats and journal into the
    guard's merged accounting.  Call in submission order. *)
val absorb : t -> shard -> unit

(** Materialize breaker records for [sids] before dispatching a batch,
    so worker domains only mutate their own sid's record and never the
    table structure. *)
val prepare : t -> sids:int list -> unit

val create : ?policy:policy -> unit -> t
val policy : t -> policy
val stats : t -> stats

(** The failure journal, oldest first: (static predicate sid, failure). *)
val failures : t -> (int * verify_failure) list

(** Is the circuit breaker for [sid] open? *)
val breaker_open : t -> sid:int -> bool

(** {2 Ledger-tuned knobs}

    The policy's breaker threshold and escalation ladder are static
    session-wide defaults; [auto_tune] replaces them per predicate with
    values derived from the failure journal.  Only the failures of a
    run — [Run_crashed], [Run_budget_exhausted], [Captured] — feed the
    rule, never [Breaker_open] skips; every one is deterministic in
    (program, input, budget, chaos), so the derived table is identical
    at any [-j] and across kill/resume (the journal is
    checkpoint-restored and the table is recomputed from it).  Called
    by [Demand] between batches when evidence-driven ranking is
    enabled. *)

(** A per-sid override: breaker threshold and escalation retries. *)
type tuning = { tn_breaker_threshold : int; tn_max_retries : int }

(** Recompute every override from the current failure journal: a sid
    with ≥ 2 deterministic failures gets threshold 2 and a
    single-attempt ladder.  Coordinator-only, between batches. *)
val auto_tune : t -> unit

(** The override in effect for [sid], if any. *)
val tuning_of : t -> sid:int -> tuning option

(** Record an unexpected exception that was contained {e outside} a
    re-execution (e.g. during alignment of a corrupted trace). *)
val note_captured : t -> sid:int -> msg:string -> unit

(** Like {!note_captured}, into a worker shard. *)
val note_captured_in : shard -> sid:int -> msg:string -> unit

(** {2 Crash-safe resume support}

    The guard's whole mutable state — merged stats, failure journal,
    circuit breakers — is exported into ledger checkpoints and restored
    verbatim when a run resumes, so a resumed session continues exactly
    where the journaled one stopped. *)

type breaker_state = { bk_sid : int; bk_consecutive : int; bk_opened : bool }

(** Every materialized breaker, sorted by sid (deterministic). *)
val breaker_states : t -> breaker_state list

(** Overwrite the guard's merged stats, journal ([failures], oldest
    first) and breaker table. *)
val restore :
  t ->
  stats:stats ->
  failures:(int * verify_failure) list ->
  breakers:breaker_state list ->
  unit

(** The outcome of one guarded verification. *)
type outcome =
  | Completed of Exom_interp.Interp.run  (** ran to termination *)
  | Degraded of Exom_interp.Interp.run * verify_failure
      (** aborted, but the trace prefix is still usable for alignment *)
  | Skipped of verify_failure  (** no run happened / nothing usable *)

(** [execute t ~sid ~base_budget ~run] performs one verification
    end-to-end under the policy: breaker check, budget ladder,
    exception containment, stats and breaker bookkeeping.  [run] is one
    re-execution attempt at a given budget; it is called between one and
    [Backoff.attempts] times.  Every exception [run] raises is contained
    as {!Captured}. *)
val execute :
  t ->
  sid:int ->
  base_budget:int ->
  run:(budget:int -> Exom_interp.Interp.run) ->
  outcome

(** Like {!execute}, but accounting into a worker shard.  The breaker
    table on [t] is still consulted and updated — callers must ensure
    all runs of one [sid] stay on one worker (the batch planner's
    sid-grouping guarantees this). *)
val execute_in :
  t ->
  shard ->
  sid:int ->
  base_budget:int ->
  run:(budget:int -> Exom_interp.Interp.run) ->
  outcome
