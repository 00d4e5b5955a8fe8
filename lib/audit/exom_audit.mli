(** Cross-run audit: spine diff, metric drift, ledger diff and
    resume-lineage walks composed into one verdict — the engine behind
    [exom audit RUN_A RUN_B] and the CI trace gate.

    A run is any artifact a localization leaves behind: a Chrome trace
    ([--trace-out]), an observability JSONL log ([--metrics-out]) or a
    ledger/journal.  {!load} sniffs the format; {!audit} compares the
    legs both sides support (or exactly the requested ones); {!clean}
    is the gate predicate and {!render} the post-mortem. *)

type run = {
  path : string;
  spans : Exom_obs.Span.t list option;
  metrics : Exom_obs.Metrics.t option;
  events : Exom_ledger.Ledger.event list option;
  resumes : Exom_ledger.Ledger.resume_info list;
      (** resume-marker payloads when the file is a journal *)
  torn : Exom_obs.Jsonl.salvage option;
      (** the journal's or obs log's torn tail, located for citation *)
}

(** Load and sniff one artifact.  Ledgers and journals are read
    tolerantly (markers and torn tails recorded, not fatal); version
    skew and mid-file corruption still error. *)
val load : string -> (run, string) result

type leg = Spine_leg | Metrics_leg | Ledger_leg

type ledger_diff = {
  ld_equal : bool;
  ld_older : int;  (** event counts *)
  ld_newer : int;
  ld_divergence : (int * string * string) option;
      (** first differing event (index, older, newer); [None] with
          [ld_equal = false] means one stream is a strict prefix *)
}

type t = {
  a : run;
  b : run;
  lanes : Exom_obs.Spine.lanes;
  spine : (Exom_obs.Spine.t * Exom_obs.Spine.t * Exom_obs.Spine.edit list) option;
  drift : Exom_obs.Metrics.drift_finding list option;
  ledger : ledger_diff option;
}

(** [audit ?lanes ?tolerance ?direction_of ?legs a b].  Without
    [legs], every leg both runs support is compared (two runs with no
    comparable leg error out).  With [legs], exactly those are
    compared, and a side that cannot provide a requested leg is an
    error — a gate must not pass by comparing nothing.  [lanes]
    selects the spine projection (default [All]; use [Coordinator] for
    resume-vs-uninterrupted comparisons); [tolerance]/[direction_of]
    parameterize {!Exom_obs.Metrics.drift}. *)
val audit :
  ?lanes:Exom_obs.Spine.lanes ->
  ?tolerance:float ->
  ?direction_of:(string -> Exom_obs.Metrics.direction) ->
  ?legs:leg list ->
  run -> run ->
  (t, string) result

(** No spine edits, no metric breach, equal ledgers (absent legs are
    vacuously clean). *)
val clean : t -> bool

(** The full post-mortem: lineage, spine edit script, drift table,
    ledger divergence, final CLEAN/DRIFT verdict. *)
val render : t -> string

(** The run's resume markers, ready for
    {!Exom_ledger.Explain.render}'s [?replay]. *)
val replay_of : run -> Exom_ledger.Ledger.resume_info list
