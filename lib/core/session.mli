(** A debugging session: one failing traced run plus everything the
    demand-driven algorithm needs around it (static info, value profile,
    region tree, potential-dependence machinery, output classification,
    verification bookkeeping for Tables 3-4).

    The session itself is a read-only view once created: verification
    accounting lives in the session's {!Exom_obs.Obs.t} metrics registry
    merged by the scheduler on the coordinator, and cached verdicts live
    in a {!Exom_sched.Store.t}, so worker domains can share the session
    freely while only the coordinator mutates the registry and store. *)

(** One recorded verification batch, consumed positionally by a resumed
    run: {!Verify.verify_batch} matches the next group against its live
    pairs; on a match the recorded ledger events are re-emitted
    verbatim, the verdicts are returned (and seeded into the store
    without touching its counters), and the trailing checkpoint
    restores the guard, store and run-count state.  Any mismatch drops
    the remaining cursor and verification continues live — a diverged
    journal degrades to a cold start, never to a wrong answer. *)
type replay_group = {
  rg_pairs : (int * int) list;
      (** unique (p, u) pairs in first-occurrence order — the spine the
          live batch must reproduce for the group to be consumed *)
  rg_queries : int;  (** total (pre-dedup) query count of the batch *)
  rg_verdicts : ((int * int) * (Verdict.result * string)) list;
      (** per unique pair: decoded result plus evidence source (a
          ["dead"] source is not seeded into the store, mirroring the
          live never-persist rule for died tasks) *)
  rg_events : Exom_ledger.Ledger.event list;
      (** the batch's Verify/Batch/Checkpoint events, verbatim *)
  rg_total_runs : int;
      (** cumulative verify.run count recorded after the batch *)
  rg_checkpoint : Exom_ledger.Ledger.checkpoint option;
}

type t = {
  prog : Exom_lang.Ast.program;
  info : Exom_cfg.Proginfo.t;
  input : int list;
  run : Exom_interp.Interp.run;
  trace : Exom_interp.Trace.t;
  region : Exom_align.Region.t;
  profile : Exom_interp.Profile.t;
  rel : Exom_ddg.Relevant.t;
  correct_outputs : int list;  (** Ov *)
  wrong_output : int;  (** o×, or the crash point for crash failures *)
  vexp : Exom_interp.Value.t option;
      (** expected value at o×; [None] for crash failures (no strong
          verification possible) *)
  budget : int;
  guard : Guard.t;
      (** the session's resilience state: retry policy, circuit
          breakers, robustness accounting, failure journal *)
  chaos : Exom_interp.Chaos.t option;
      (** fault injection applied to switched re-executions only; the
          failing run under diagnosis is never subjected to chaos *)
  obs : Exom_obs.Obs.t;
      (** observability context: merged verification metrics (successor
          of the old tally) plus optional span recording;
          coordinator-only *)
  store : Exom_sched.Store.t;
      (** verdict cache (in-memory, optionally persistent);
          coordinator-only *)
  ledger : Exom_ledger.Ledger.t option;
      (** provenance record of the localization; appended to only on the
          coordinator in program order (same lane discipline as spans),
          so its contents are identical at every [-j] *)
  key_prefix : string;
      (** content hash of everything a verdict depends on besides
          (mode, p, u) — program, input, expected stream, budget,
          chaos — prepended to every store key *)
  mutable replay : replay_group list;
      (** pending recorded batches (oldest first) a resumed run consumes
          instead of re-executing; [[]] for a fresh run or once
          exhausted — primed by {!Recover.prime} *)
}

(** Raised when the run's outputs don't disagree with the expected
    stream at any comparable position. *)
exception No_failure

(** Split an output stream against the expected values: longest matching
    prefix (Ov), first mismatching instance (o×), expected value
    there.  Raises {!No_failure} when the streams agree. *)
val classify_outputs :
  outputs:(int * int) list ->
  expected:int list ->
  int list * int * Exom_interp.Value.t

(** [create ~prog ~input ~expected ~profile_inputs ()] executes the
    failing run and prepares the session.  [expected] is the correct
    output stream (from the spec or a corrected version);
    [profile_inputs] drive the value-profile collection runs.  [policy]
    configures the resilience layer ({!Guard.default_policy} when
    omitted); [chaos] injects faults into switched re-executions.
    [store] supplies a verdict cache to reuse across sessions (e.g. a
    persistent one); a fresh memory-only store is created when
    omitted.  [obs] supplies the observability context (enable span
    recording by passing [Exom_obs.Obs.create ~trace:true ()]); a
    metrics-only context is created when omitted.  [ledger] enables
    provenance recording: the session appends its own record on
    creation, and Demand/Verify append the search and evidence events. *)
val create :
  ?obs:Exom_obs.Obs.t ->
  ?budget:int ->
  ?policy:Guard.policy ->
  ?chaos:Exom_interp.Chaos.t ->
  ?store:Exom_sched.Store.t ->
  ?ledger:Exom_ledger.Ledger.t ->
  prog:Exom_lang.Ast.program ->
  input:int list ->
  expected:int list ->
  profile_inputs:int list list ->
  unit ->
  t

(** The ledger reference ({!Exom_ledger.Ledger.inst}) for a trace
    instance: sid, source line and occurrence resolved. *)
val linst : t -> int -> Exom_ledger.Ledger.inst

(** {2 Accounting views} *)

(** Re-executions actually performed (= [Guard] completed + aborted). *)
val verifications : t -> int

(** Wall-clock seconds spent inside re-executions. *)
val verif_seconds : t -> float

(** Verdicts asked for, including cache hits (≥ {!verifications}). *)
val verify_queries : t -> int

(** Live counters of the session's verdict store. *)
val store_stats : t -> Exom_sched.Store.stats
