(** Corpus campaigns: generate a manifest of validated (program, fault,
    input) triples, run the locator over every triple — sharded across
    worker processes against one shared sharded store — and leave
    byte-deterministic artifacts behind.

    {b Artifacts} (all under one campaign directory):
    - [manifest.json] — the corpus: [{"schema":"exom.corpus","version":1}]
      plus one record per triple with both sources inline, the failing
      input, the ground-truth root (line + sids) and static features.
      Byte-deterministic in [(seed, count, family)].
    - [outcomes.shard<k>.jsonl] — shard [k]'s append-only row journal,
      fsynced after every row; the crash-safe record of completed
      triples.
    - [journals/<id>.jsonl] — each triple's ledger journal
      ({!Exom_ledger.Ledger.attach_journal}); a triple killed mid-run is
      resumed from it by the PR-5 replay machinery.
    - [outcomes.jsonl] — the merged artifact: a schema header line
      followed by one row per triple in id order.  Contains no
      wall-clock, shard, or job-count fields, so it is byte-identical
      across reruns, [-j], and shard counts.

    {b Resume}: a re-run with [--resume] keeps every row already in a
    shard journal verbatim, replays any triple whose ledger journal is
    complete, and re-runs the rest.  One documented wrinkle: a triple
    killed {e mid-localization} re-runs against whatever verdicts it had
    already persisted, so its store-tier row counters can legitimately
    differ from an uninterrupted run's; every other field, and every
    other row, is byte-identical. *)

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
val outcome_of_string : string -> (outcome, string) result

(** The merged-outcomes header line for [manifest]. *)
val outcomes_header : manifest -> string

(** Tolerant JSONL row reader: parses rows until the first torn or
    foreign line (a crash may tear the tail), dropping the rest. *)
val read_rows : string -> outcome list

(** [shard_journal dir k] — shard [k]'s row journal path. *)
val shard_journal : string -> int -> string

(** Rows already journaled under [dir] (all shard files, any past shard
    count), deduped by id. *)
val journaled_rows : string -> outcome list

(** Create the campaign directory layout ([dir], [dir]/store,
    [dir]/journals) if missing. *)
val ensure_layout : string -> unit

(** Delete a previous campaign's artifacts under [dir] (row journals,
    ledger journals, store, merged outcomes) so a fresh run cannot see
    them.  The manifest and anything else in [dir] are left alone. *)
val reset : string -> unit

(** Run one triple in-process against the campaign directory's shared
    store, journaling its ledger under [dir]/journals and resuming from
    a prior journal when one matches.  [pool] is the caller's supervised
    worker pool (one per shard, reused across triples).  [config]
    overrides the locator's configuration (e.g. [ranking = None] for a
    static-order control leg). *)
val run_triple :
  ?config:Exom_core.Demand.config ->
  ?pool:Exom_sched.Pool.t ->
  dir:string ->
  triple ->
  outcome

(** [run_shard ~dir ~manifest ~shard ~shards ~skip ()] runs this
    shard's slice of the manifest (triples [i] with [i mod shards =
    shard], skipping ids in [skip]), appending each row to the shard
    journal as it completes.  With [jobs], the shard creates a worker
    pool of that size and shuts it down when it ends; without, the
    triples run on {!Exom_sched.Pool.default}, which stays up.  Returns
    the rows written. *)
val run_shard :
  ?config:Exom_core.Demand.config ->
  ?jobs:int ->
  dir:string ->
  manifest:manifest ->
  shard:int ->
  shards:int ->
  skip:(string -> bool) ->
  unit ->
  outcome list

(** Merge all journaled rows into [outcomes.jsonl] (header + rows in id
    order, restricted to manifest ids).  Returns the rows and the ids
    the journals were missing. *)
val merge : dir:string -> manifest:manifest -> outcome list * string list

(** In-process campaign driver (tests; the CLI forks instead): runs
    shards [0..shards-1] sequentially, then merges. *)
val run_local :
  ?config:Exom_core.Demand.config ->
  ?jobs:int ->
  ?resume:bool ->
  dir:string ->
  manifest:manifest ->
  shards:int ->
  unit ->
  outcome list * string list

type summary = {
  s_total : int;
  s_located : int;
  s_by_status : (string * int) list;  (** status → rows, sorted *)
  s_by_class : (string * (int * int)) list;
      (** class → (rows, located), sorted *)
}

val summarize : outcome list -> summary
val render_summary : summary -> string

(** {2 Campaign metric registries}

    Each shard reduces its journaled rows to a
    ["corpus.<class>.<count>"] counter registry written as
    [metrics.shard<k>.jsonl]; {!merge} writes the campaign-level
    [metrics.jsonl] from the deduped merged rows.  Counters merge by
    sum, so the canonical registry equals the absorption of the shard
    registries over any disjoint partition — byte-deterministic across
    reruns, [-j] and shard counts, like [outcomes.jsonl].  All files
    are {!Exom_obs.Export} JSONL, readable by [exom stats] and
    [exom audit]. *)

val shard_metrics : string -> int -> string
val campaign_metrics : string -> string
val registry_of_rows : outcome list -> Exom_obs.Metrics.t

(** The per-fault-class rollup [corpus report] prints next to the
    outcome tables: mean verification work per triple and a
    verifications-per-triple histogram. *)
val render_rollup : outcome list -> string
