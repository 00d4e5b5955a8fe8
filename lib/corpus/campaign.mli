(** Corpus campaigns: generate a manifest of validated (program, fault,
    input) triples, run the locator over every triple in one process
    against one shared verdict store, and leave byte-deterministic
    artifacts behind.

    {b Artifacts} (all under one campaign directory):
    - [manifest.json] — the corpus: [{"schema":"exom.corpus","version":1}]
      plus one record per triple with both sources inline, the failing
      input, the ground-truth root (line + sids) and static features.
      Byte-deterministic in [(seed, count, family)].
    - [journals/<id>.jsonl] — each triple's ledger journal
      ({!Exom_ledger.Ledger.attach_journal}), overwritten by its
      canonical ledger when the triple ends: the campaign's only crash
      record.
    - [store/] — the verdict store every triple shares.
    - [outcomes.jsonl] — a schema header line followed by one row per
      triple in manifest order, written whole by one rename after the
      last triple.  Contains no wall-clock or job-count fields, so it
      is byte-identical across reruns, [-j] and resumes.
    - [metrics.jsonl] — the rows' counter registry ({!registry_of_rows}).

    {b Resume}: a re-run with [resume] runs every triple through
    {!run_triple} again, which replays a complete journal without a
    switched run, resumes an interrupted one, and runs cold when the
    journal does not match the triple's session (say, another
    manifest's triple at the same id).  One documented wrinkle: a
    triple killed {e mid-localization} re-runs against whatever
    verdicts it had already persisted, so its row's work and store
    counters ([verifications], [completed], the store tiers) can differ
    from an uninterrupted run's; every other row is byte-identical. *)

(** One corpus entry. *)
type triple = {
  t_id : string;  (** "t00042" — position in the manifest *)
  t_seed : int;  (** the factory/seeder seed that produced it *)
  t_family : string;
  t_class : Seeder.fault_class;
  t_root_line : int;
  t_root_sids : int list;
  t_stmts : int;
  t_predicates : int;
  t_procs : int;
  t_loc : int;
  t_input : int list;
  t_correct : string;
  t_faulty : string;
}

type manifest = {
  m_seed : int;
  m_count : int;
  m_family : string;  (** a {!Factory.families} name, or ["mixed"] *)
  m_attempts : int;  (** generation attempts consumed (yield telemetry) *)
  m_triples : triple list;
}

val schema_name : string
val schema_version : int

(** [generate ~seed ~count ()] draws programs from the factory
    (rotating the three stock families when [family] is ["mixed"], the
    default) and seeds + validates one fault per program until [count]
    triples exist.  Deterministic in [(seed, count, family, classes)].
    Raises [Failure] for an unknown family or when the seeder's yield
    collapses (a classes filter that never validates). *)
val generate :
  ?family:string ->
  ?classes:Seeder.fault_class list ->
  seed:int ->
  count:int ->
  unit ->
  manifest

val manifest_to_string : manifest -> string
val manifest_of_string : string -> (manifest, string) result
val write_manifest : string -> manifest -> unit
val load_manifest : string -> (manifest, string) result

(** One outcome row.  Every field is deterministic at any job count. *)
type outcome = {
  o_id : string;
  o_class : string;
  o_family : string;
  o_status : string;
      (** ["located"] | ["not_located"] | ["no_failure"] | ["error"] *)
  o_counts : (string * int) list;
      (** {!Exom_core.Pipeline.counts_of_report} keys, fixed order *)
  o_stmts : int;
  o_predicates : int;
  o_loc : int;
}

val located : outcome -> bool

(** [count row key] — 0 when absent. *)
val count : outcome -> string -> int

val outcome_to_string : outcome -> string

(** The [outcomes.jsonl] header line for [manifest]. *)
val outcomes_header : manifest -> string

(** [read_outcomes path] reads an [outcomes.jsonl] strictly
    ({!Exom_obs.Jsonl.records}): an [exom.corpus.outcomes] v1 header,
    then one row per non-blank line.  The error names [path] and the
    first bad line. *)
val read_outcomes : string -> (outcome list, string) result

(** Create the campaign directory layout ([dir], [dir]/store,
    [dir]/journals) if missing. *)
val ensure_layout : string -> unit

(** Run one triple in-process against the campaign directory's shared
    store, journaling its ledger under [dir]/journals and resuming from
    a prior journal when one matches.  A complete matching journal that
    already holds the canonical ledger is replayed and left in place,
    neither re-journaled nor rewritten.  [pool] is the caller's worker
    pool, reused across triples.  [config] overrides the locator's
    configuration (e.g. [ranking = None] for a static-order control
    leg). *)
val run_triple :
  ?config:Exom_core.Demand.config ->
  ?pool:Exom_sched.Pool.t ->
  dir:string ->
  triple ->
  outcome

(** [run ~dir ~manifest ()] runs every manifest triple in order
    through {!run_triple}, then writes [outcomes.jsonl] and
    [metrics.jsonl] and returns the rows.  Without [resume] it first
    deletes a previous campaign's journals, store, outcomes and metrics
    under [dir] (the manifest and any other file stay).  With [jobs],
    the campaign creates a worker pool of that size and shuts it down
    when it ends; without, the triples run on
    {!Exom_sched.Pool.default}, which stays up.  A failed write of
    either file is absorbed into [corpus.io_failures]. *)
val run :
  ?config:Exom_core.Demand.config ->
  ?jobs:int ->
  ?resume:bool ->
  dir:string ->
  manifest:manifest ->
  unit ->
  outcome list

type summary = {
  s_total : int;
  s_located : int;
  s_by_status : (string * int) list;  (** status → rows, sorted *)
  s_by_class : (string * (int * int)) list;
      (** class → (rows, located), sorted *)
}

val summarize : outcome list -> summary
val render_summary : summary -> string

(** {2 Campaign metric registry}

    {!run} reduces the rows to a ["corpus.<class>.<count>"] counter
    registry written as [metrics.jsonl] — byte-deterministic wherever
    [outcomes.jsonl] is, and {!Exom_obs.Export} JSONL, readable by
    [exom stats] and [exom audit]. *)

val campaign_metrics : string -> string
val registry_of_rows : outcome list -> Exom_obs.Metrics.t

(** The per-fault-class rollup [corpus report] prints next to the
    outcome tables: mean verification work per triple and a
    verifications-per-triple histogram. *)
val render_rollup : outcome list -> string
