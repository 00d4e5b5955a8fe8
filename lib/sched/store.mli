(** A content-addressed cache with an in-memory LRU front and an
    optional persistent on-disk tier shared safely between processes.

    Keys are caller-derived digests (see {!digest}); values are opaque
    strings (the caller owns the codec).  The disk tier stores one
    versioned, self-identifying file per entry inside a hash-partitioned
    shard directory — a renamed, truncated or version-skewed entry is
    rejected on read (counted in [corrupted]) and moved into the
    [quarantine/] subdirectory rather than returned as a hit or left in
    place to fail again.

    {b Multi-writer discipline.}  Any number of processes may read and
    write one store directory concurrently:

    - the directory carries a versioned [MANIFEST] naming the layout
      version and shard count; a foreign or corrupt manifest (or a
      pre-shard legacy layout) is quarantined wholesale and the
      directory re-initialized, never aborted on;
    - each shard has an advisory writer lock file; writers take it for
      the duration of one entry write (temp file + rename), readers
      never lock (renames are atomic and entries self-identify);
    - a crashed writer cannot wedge the cache: a lock whose holder pid
      is dead is stolen immediately, and any lock older than the
      configurable lease is stolen regardless (counted in
      {!lock_stats});
    - integrity never depends on the lock — entries are content
      addressed, so two writers racing on one key write identical
      bytes, and temp names are per-process.

    Within a process the store remains {b coordinator-only}: the batch
    planner resolves hits before dispatching work to the pool and
    records results after the deterministic merge, so worker domains
    never touch it.  All deterministic counters ({!stats}) are
    unchanged by sharding; contention counters live in the separate
    {!lock_stats} record, which is operational (per-process, not
    checkpointed) by design. *)

type t

type stats = {
  mutable hits : int;  (** answered from the in-memory front *)
  mutable disk_hits : int;  (** answered from disk (then promoted) *)
  mutable misses : int;
  mutable evictions : int;  (** LRU entries dropped from memory *)
  mutable corrupted : int;  (** disk entries rejected on read *)
  mutable writes : int;  (** entries persisted to disk *)
}

(** Operational counters for the multi-writer disk tier.  These are
    facts about {e this process's} interaction with the shared
    directory (scheduling, not verdict derivation), so they are not
    part of ledger checkpoints and resume does not restore them. *)
type lock_stats = {
  mutable lock_waits : int;
      (** acquisitions that found the shard lock held and waited *)
  mutable lock_steals : int;
      (** locks stolen from a dead holder or after the lease expired *)
  mutable quarantined : int;
      (** corrupt entries and foreign layout items moved aside *)
  mutable io_failures : int;
      (** persists (entries, manifest, lock files) that failed — really
          or under an injected {!Exom_util.Vfs} storm — and degraded to
          the memory tier instead of aborting *)
  mutable tmp_swept : int;
      (** orphaned temp/stale-lock files from crashed writers and
          stealers, removed on open *)
}

(** An independent copy (reports snapshot it; the live record keeps
    counting). *)
val snapshot : stats -> stats

(** Fraction of queries answered from either tier; 0 when none asked. *)
val hit_rate : stats -> float

(** [create ?obs ?dir ?capacity ?shards ?lease ()]: memory-only when
    [dir] is omitted; with [dir], entries also persist under it
    (created and initialized with a [MANIFEST] if missing).  [capacity]
    bounds the in-memory front (default 65536 entries).  [shards] is
    the disk partition count used when initializing a fresh directory
    (default {!default_shards}; an existing manifest's count always
    wins, so concurrent writers agree).  [lease] is the writer-lock
    lease in seconds (default 5).  With [obs], every
    stats increment is mirrored live into the metrics registry under
    ["store.<field>"]. *)
val create :
  ?obs:Exom_obs.Obs.t ->
  ?dir:string ->
  ?capacity:int ->
  ?shards:int ->
  ?lease:float ->
  unit ->
  t

(** Derive a content-addressed key: parts are length-prefixed before
    hashing, so boundaries cannot collide. *)
val digest : string list -> string

val find : t -> string -> string option

(** [find] plus which tier answered — lets the provenance ledger record
    cache evidence ([`Mem] front vs [`Disk] promotion). *)
val find_tier : t -> string -> (string * [ `Mem | `Disk ]) option

val add : t -> key:string -> string -> unit

(** {2 Crash-safe resume support} *)

(** Like {!add}, but invisible to the books: no counter moves and no
    metric is mirrored.  Used when a resumed run re-populates the store
    from a replayed ledger — the uninterrupted run's counts are
    restored wholesale with {!restore_stats} instead. *)
val seed : t -> key:string -> string -> unit

(** Overwrite the live counters (and mirror the jumps into the metrics
    registry, like live increments would have). *)
val restore_stats : t -> stats -> unit

(** Entries currently held in the in-memory front. *)
val mem_size : t -> int

val stats : t -> stats

(** Live operational counters for the disk tier (all zero when the
    store is memory-only). *)
val lock_stats : t -> lock_stats

(** Disk shard count in effect (from the manifest); 0 when the store is
    memory-only. *)
val shard_count : t -> int

(** Entry-format version of the disk tier. *)
val version : int

(** Directory-layout version recorded in the [MANIFEST]. *)
val layout_version : int

val default_shards : int
