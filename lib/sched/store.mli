(** A content-addressed cache with an in-memory LRU front and an
    optional persistent on-disk tier shared safely between processes.

    Keys are caller-derived digests (see {!digest}); values are opaque
    strings (the caller owns the codec).  The disk tier is one flat
    directory holding one versioned, self-identifying file per entry,
    named by its key — a renamed, truncated or version-skewed entry is
    rejected on read (counted in [corrupted]) and moved into the
    [quarantine/] subdirectory rather than returned as a hit or left in
    place to fail again.

    {b Sharing a directory.}  Any number of processes may read and
    write one store directory concurrently, without a lock: a verdict
    is a pure function of its key, so two writers racing on one key
    write identical bytes, each through its own per-pid temp file and
    an atomic rename.  Opening a store creates the directory if it is
    missing and writes nothing else.  A writer killed mid-entry leaves
    at most a [<key>.tmp.<pid>] file, which no lookup opens.  A
    directory in the older sharded layout ([MANIFEST], [shard-NNN/])
    is not read: its lookups miss, and the verdicts are recomputed.

    Within a process the store is {b coordinator-only}: the batch
    planner resolves hits before dispatching work to the pool and
    records results after the deterministic merge, so worker domains
    never touch it. *)

type t

type stats = {
  mutable hits : int;  (** answered from the in-memory front *)
  mutable disk_hits : int;  (** answered from disk (then promoted) *)
  mutable misses : int;
  mutable evictions : int;  (** LRU entries dropped from memory *)
  mutable corrupted : int;  (** disk entries rejected on read *)
  mutable writes : int;  (** entries persisted to disk *)
}

(** An independent copy (reports snapshot it; the live record keeps
    counting). *)
val snapshot : stats -> stats

(** Fraction of queries answered from either tier; 0 when none asked. *)
val hit_rate : stats -> float

(** [create ?obs ?dir ?capacity ()]: memory-only when [dir] is
    omitted; with [dir], entries also persist under it (created if
    missing; when it cannot be created, the store runs memory-only and
    counts ["store.io_failures"]).  [capacity] bounds the in-memory
    front (default 65536 entries).  With [obs], every stats increment
    — and every quarantined entry and failed persist — is mirrored live
    into the metrics registry under ["store.<field>"].  Raises
    [Invalid_argument] when [dir] exists but is not a directory. *)
val create : ?obs:Exom_obs.Obs.t -> ?dir:string -> ?capacity:int -> unit -> t

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
    restored wholesale with {!restore_stats} instead.  An entry already
    on disk is left as it is: it holds the same bytes. *)
val seed : t -> key:string -> string -> unit

(** Overwrite the live counters (and mirror the jumps into the metrics
    registry, like live increments would have). *)
val restore_stats : t -> stats -> unit

(** Entries currently held in the in-memory front. *)
val mem_size : t -> int

val stats : t -> stats

(** Entry-format version of the disk tier. *)
val version : int
