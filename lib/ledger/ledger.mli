(** The provenance ledger: a versioned, append-only record of one
    demand-driven localization run — per-iteration pruned-slice
    snapshots (with deltas), every potential-dependence candidate, and
    the full evidence of every verification (switched predicate
    instance, alignment point or proof of no alignment, switched-run
    outcome, verdict, Guard failure taxonomy, store tier, deterministic
    cost) — so [exom explain] can reconstruct {e why} each implicit
    edge was admitted and how the root cause entered the slice.

    {b Determinism discipline} (DESIGN.md §10): evidence is produced on
    worker domains into per-verification slots (the scheduler's answer
    array discipline), but the ledger itself is appended to {e only on
    the coordinator}, in program order, after each batch's deterministic
    merge; no wall-clock figure ever enters an event (cost is counted
    in interpreter steps and registry run counts).  A localization
    therefore writes byte-identical ledgers at any [-j]. *)

val schema_name : string
val schema_version : int

(** Header versions {!of_string}/{!recover_string} accept.  Older
    listed versions are strict subsets of the current vocabulary (a v2
    file simply contains no [Rank] events), so they read back
    losslessly. *)
val readable_versions : int list

(** A trace-instance reference, resolved enough (sid, source line,
    occurrence) for the ledger to be rendered without the program. *)
type inst = { idx : int; sid : int; line : int; occ : int }

(** The switched re-execution behind a verification: how it ended
    (["ok"], ["budget-exhausted"], ["crashed: ..."]), its cost in
    interpreter steps (deterministic, unlike wall clock), and whether
    the switched predicate instance was actually reached. *)
type run_info = { outcome : string; steps : int; switch_fired : bool }

(** Alignment evidence (Algorithm 1): the target's counterpart in the
    switched run ([None] is the proof of no alignment — Definition 2
    case (i)); the failure point's counterpart and whether it carried
    the expected value (Definition 4); whether a definition was
    rerouted through the switched region (case (ii)). *)
type align_info = {
  counterpart : int option;
  ox_counterpart : int option;
  ox_restored : bool;
  rerouted : bool;
}

type verify_ev = {
  vp : inst;  (** the switched predicate instance *)
  vu : inst;  (** the use being tested *)
  verdict : string;  (** STRONG_ID | ID | NOT_ID *)
  value_affected : bool;
  source : string;
      (** ["run"] | ["cache:mem"] | ["cache:disk"] | ["skip"] (breaker)
          | ["dead"] (task died) *)
  run : run_info option;  (** absent for cache hits and skips *)
  align : align_info option;
  failure : string option;  (** Guard failure taxonomy, when degraded *)
}

type slice_entry = {
  s_idx : int;
  s_sid : int;
  s_line : int;
  s_conf : float;
  s_dist : int;
}

(** {2 Checkpoints (schema v2)}

    The resumable state written after every batch: cumulative guard
    counters, the full failure journal (as {!Exom_core.Guard.failure_code}
    strings), every materialized circuit breaker, cumulative store
    counters.  Everything here is deterministic (merged in submission
    order upstream), so checkpoints preserve the -j byte-identity
    contract; the cumulative form means the {e last} replayed checkpoint
    alone restores a resumed session.  The guard counters serialize as
    an eight-slot array whose slots 3, 4 and 8 are written as 0 and
    ignored on read. *)

type guard_counts = {
  g_completed : int;
  g_aborted : int;
  g_breaker_trips : int;
  g_breaker_skips : int;
  g_captured : int;
}

type breaker_info = { b_sid : int; b_consecutive : int; b_opened : bool }

type store_counts = {
  st_hits : int;
  st_disk_hits : int;
  st_misses : int;
  st_evictions : int;
  st_corrupted : int;
  st_writes : int;
}

type checkpoint = {
  ck_guard : guard_counts;
  ck_failures : (int * string) list;  (** (sid, failure code), oldest first *)
  ck_breakers : breaker_info list;  (** sorted by sid *)
  ck_store : store_counts;
}

(** {2 Rank decisions (schema v3)}

    One ranked candidate of an expansion: where the evidence-driven
    scorer ({!Exom_rank}) placed it and whether the early-exit policy
    kept it for verification.  Scores arrive rounded to 4 decimals, so
    recording them preserves the byte-identity contract. *)
type rank_decision = {
  rd_idx : int;
  rd_sid : int;
  rd_score : float;
  rd_kept : bool;
}

type event =
  | Session of {
      wrong : inst;
      vexp : string option;
      correct_outputs : int;
      budget : int;
      trace_len : int;
      chaos : string option;
          (** the fault injected into switched runs, as
              {!Exom_interp.Chaos.to_string} renders it; the field is
              absent from a run without one *)
    }
  | Locate of { root_sids : int list; mode : string; max_iterations : int }
  | Slice of {
      iter : int;
      entries : slice_entry list;
      added : int list;
      removed : int list;
    }
  | Prune of { iter : int; marked : int list }
  | Expand of { iter : int; u : inst; candidates : int list }
  | Rank of { iter : int; u : inst; prior : float; decisions : rank_decision list }
      (** how the expansion's candidates were ordered and which were
          cut; verification batches follow the kept ones in list order *)
  | Verify of verify_ev
  | Edge of {
      ep : inst;
      eu : inst;
      strength : string;  (** "strong" | "weak" *)
      value_affected : bool;
      related : bool;  (** admitted by the related-target fan-out *)
    }
  | Batch of {
      queries : int;
      unique : int;
      cache_hits : int;
      runs : int;  (** switched runs dispatched by this batch *)
      total_runs : int;  (** cumulative verify.run count (registry) *)
    }
  | Checkpoint of checkpoint
      (** emitted right after each [Batch]: the state a resume needs *)
  | Final of {
      found : bool;
      iterations : int;
      edges : int;
      user_prunings : int;
      total_prunings : int;
      verifications : int;
      queries : int;
      os_chain : int list option;
      degraded : string option;
    }

type t

val create : unit -> t

(** Events in append order. *)
val events : t -> event list

(** {2 Appending (coordinator only)} *)

val session :
  ?chaos:string ->
  t ->
  wrong:inst ->
  vexp:string option ->
  correct_outputs:int ->
  budget:int ->
  trace_len:int ->
  unit

val locate : t -> root_sids:int list -> mode:string -> max_iterations:int -> unit

(** Records the snapshot and computes the delta against the previous
    snapshot internally. *)
val slice : t -> iter:int -> slice_entry list -> unit

val prune : t -> iter:int -> marked:int list -> unit
val expand : t -> iter:int -> u:inst -> candidates:int list -> unit

val rank :
  t -> iter:int -> u:inst -> prior:float -> decisions:rank_decision list ->
  unit

val verify :
  t ->
  p:inst ->
  u:inst ->
  verdict:string ->
  value_affected:bool ->
  source:string ->
  ?run:run_info ->
  ?align:align_info ->
  ?failure:string ->
  unit ->
  unit

val edge :
  t ->
  p:inst ->
  u:inst ->
  strength:string ->
  value_affected:bool ->
  related:bool ->
  unit

val batch :
  t -> queries:int -> unique:int -> cache_hits:int -> runs:int ->
  total_runs:int -> unit

val checkpoint : t -> checkpoint -> unit

(** Re-emit a recovered event verbatim (resume replay).  Bypasses the
    slice-delta bookkeeping — use only for Verify/Batch/Checkpoint
    events; the resumed demand loop re-emits everything else live. *)
val append : t -> event -> unit

val final :
  t ->
  found:bool ->
  iterations:int ->
  edges:int ->
  user_prunings:int ->
  total_prunings:int ->
  verifications:int ->
  queries:int ->
  os_chain:int list option ->
  degraded:string option ->
  unit

(** {2 Serialization: versioned JSONL} *)

(** One event as its canonical JSON object — the payload of its JSONL
    line.  Exposed for comparators ([exom audit]'s ledger leg) that
    diff event streams without re-parsing rendered files. *)
val event_json : event -> Exom_obs.Json.t

val string_of_events : event list -> string
val to_string : t -> string

(** Crash-consistent canonical write: the serialization goes to a temp
    file first and is renamed into place, so a kill mid-write leaves
    either the old file or the new one, never a torn hybrid.  Detach an
    attached journal on the same path ({!close_journal}) first.
    Raises {!Exom_util.Vfs.Io_error} on failure; callers with a
    degradation contract use {!write_result} instead. *)
val write : string -> t -> unit

(** Checked variant of {!write}: the campaign runner absorbs the error
    into its degradation contract instead of unwinding. *)
val write_result : string -> t -> (unit, Exom_util.Vfs.error) result

(** {2 The write-ahead journal}

    [attach_journal t path] opens [path] (truncating) and from then on
    every appended event is also written to it as one JSONL line,
    flushed per event — a kill loses at most the torn tail of one line.
    Any events already in [t] are written immediately (the replayed
    prefix of a resume).  {!sync} additionally [fsync]s — the demand
    loop calls it at iteration boundaries, making each completed
    iteration durable.  The journal is what {!recover_string} salvages
    after a crash; a run that completes normally overwrites it with the
    canonical {!write} (byte-identical at every [-j], markers and all
    torn debris gone). *)

val attach_journal : t -> string -> unit

(** The attached journal's path, if any. *)
val journal_path : t -> string option

(** Write the explicit resume meta line
    [{"type":"resume","replayed":N,"truncated":bool}] to the journal:
    the durable record that this run is a resumed continuation and
    whether its predecessor's tail was torn.  Meta lines are skipped by
    {!recover_string} and never enter {!events}.  No-op without a
    journal. *)
val resume_marker : t -> replayed:int -> truncated:bool -> unit

(** Flush and [fsync] the journal (no-op without one).  Never raises:
    a failed flush or fsync — real or injected through
    {!Exom_util.Vfs} — is absorbed into {!io_failures}, and the demand
    loop surfaces it as a DEGRADED run.  The in-memory ledger still
    carries every event, so provenance is never silently lost; what
    degrades is crash-replay coverage. *)
val sync : t -> unit

(** Flush and close the journal; further appends are in-memory only. *)
val close_journal : t -> unit

(** Journal writes, syncs and attaches that failed and were absorbed
    since {!create}.  Non-zero means the run must be reported
    DEGRADED. *)
val io_failures : t -> int

(** Quick sniff ({!Exom_obs.Jsonl.schema_of}): does [content]'s first
    line name this schema (any version)?  Lets the CLI distinguish a
    ledger from an MCL source. *)
val is_ledger : string -> bool

(** Strict reader ({!Exom_obs.Jsonl.records}): rejects a
    missing/foreign/version-skewed header and any malformed or unknown
    event line, naming its file line (a corrupted ledger must never
    render as a partial narrative). *)
val of_string : string -> (event list, string) result

(** {2 Salvage of a killed run's journal} *)

(** One resume marker's payload: how many events the resumed
    generation replayed from its predecessor, and whether that
    predecessor's tail was torn. *)
type resume_info = { ri_replayed : int; ri_truncated : bool }

type recovery = {
  r_events : event list;
  r_torn : Exom_obs.Jsonl.salvage option;
      (** the last line, torn and dropped *)
  r_markers : int;  (** resume meta lines seen (prior resumes) *)
  r_resumes : resume_info list;
      (** the markers' payloads in file order — the split points
          between replayed prefix and live tail of each generation *)
}

(** Tolerant reader for resume: skips meta lines and drops a malformed
    {e final} line as the torn tail ([r_torn]).  Corruption anywhere
    earlier still rejects — a journal with a damaged middle cannot be
    trusted as a replay source. *)
val recover_string : string -> (recovery, string) result

val recover_file : string -> (recovery, string) result
