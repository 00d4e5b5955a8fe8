(** The checked I/O façade: every persistence path in the system —
    store entries and manifests, ledger canonical writes and journal
    syncs, campaign manifests and outcome rows, metric exports — goes
    through these operations instead of calling
    [open_out]/[Unix.fsync]/[Sys.rename] directly.

    Two things come from the single chokepoint:

    - {b Checked results.}  Real filesystem failures ([Sys_error],
      [Unix.Unix_error]: ENOSPC, EIO, EDQUOT, …) are caught and
      returned as a typed {!error} instead of unwinding the caller —
      each consumer implements an explicit degradation contract (the
      store drops to its memory tier, the ledger marks the run
      DEGRADED, the campaign quarantines the shard) rather than
      aborting a localization over a cache write.
    - {b Injectable faults.}  An optional seed-deterministic
      {!Io_chaos} plan (the storage-layer sibling of
      [Exom_interp.Chaos]) injects ENOSPC / EIO / short (torn) writes /
      crash-after-rename-before-fsync at the write / fsync / rename /
      close / mkdir boundaries, under a per-path fault budget — so
      `exom chaos` can storm every persistence path and assert the
      degradation contracts actually hold.

    {b Accounting discipline.}  Every injected fault must be
    acknowledged by exactly one consumer counter ({!ack}); the chaos
    gate compares {!counters}[.injected] against [.acked] and fails on
    any silently dropped (or double-counted) fault.

    With no plan armed (the default, and always in production) every
    operation is a thin wrapper over the real syscalls: no decision
    state is consulted and behaviour is byte-identical to the direct
    calls it replaced. *)

(** The operation that failed. *)
type op = Write | Fsync | Rename | Close | Mkdir | Read

(** The injected fault taxonomy. *)
type fault =
  | Enospc  (** no space: nothing written *)
  | Eio  (** I/O error: nothing written (a torn temp file may remain) *)
  | Short_write  (** only a prefix reached the disk; the torn temp remains *)
  | Torn_rename
      (** the rename itself happened but durability is unknown — the
          crash-after-rename-before-fsync window *)

type error = {
  ve_op : op;
  ve_path : string;  (** the {e destination} path of the operation *)
  ve_fault : fault option;  (** [Some _] = injected; [None] = real OS error *)
  ve_msg : string;  (** deterministic human-readable description *)
}

(** Raised only by the [_exn] conveniences; the primary API returns
    [result]. *)
exception Io_error of error

val op_to_string : op -> string
val fault_to_string : fault -> string

(** [ve_msg], prefixed with the op and path. *)
val error_message : error -> string

(** {2 Chaos plans} *)

module Io_chaos : sig
  type plan

  (** [of_seed ?rate ?budget ?per_path seed] — a storm plan: roughly
      one in [rate] chaos-eligible operations faults (default 7), the
      fault kind drawn deterministically from the seed and the
      operation counter, capped at [budget] total injected faults
      (default: unbounded) and [per_path] faults per destination path
      (default 1, so a retry against the same path makes progress).
      Deterministic in [seed] and the operation sequence: no [Random],
      no wall clock. *)
  val of_seed : ?rate:int -> ?budget:int -> ?per_path:int -> int -> plan

  (** [targeted ~op ~path_substr ~after fault] — a surgical plan for
      tests: the [after]-th operation of kind [op] whose destination
      path contains [path_substr] fails with [fault]; everything else
      passes through.  [after] counts from 1. *)
  val targeted : op:op -> path_substr:string -> after:int -> fault -> plan

  val describe : plan -> string
end

(** Arm [plan] process-wide (replacing any armed plan) and clear the
    plan's decision state.  Thread-safe. *)
val arm : Io_chaos.plan -> unit

(** Remove the armed plan: every operation is a plain checked syscall
    again. *)
val disarm : unit -> unit

val armed : unit -> bool

(** {2 Accounting} *)

type counters = {
  c_injected : int;  (** faults injected by the armed plan *)
  c_real : int;  (** real OS errors surfaced as {!error} *)
  c_acked : int;  (** injected faults acknowledged via {!ack} *)
}

val counters : unit -> counters

(** Reset {!counters} and the {!ack_tally} (not the armed plan). *)
val reset_counters : unit -> unit

(** [ack err ~by] — the consumer that absorbed [err] names the counter
    that recorded it (e.g. ["store.io_failures"]).  Call exactly once
    per received error; the chaos gate asserts
    [counters().c_acked = counters().c_injected]. *)
val ack : error -> by:string -> unit

(** Acknowledgements so far, grouped by [~by] label, sorted. *)
val ack_tally : unit -> (string * int) list

(** {2 Checked operations}

    All return [Error _] for both injected faults and real OS errors,
    and never raise. *)

(** Create [dir] (one level) if missing; racing creators are fine. *)
val ensure_dir : string -> (unit, error) result

(** Crash-consistent write: temp file + rename, optionally fsyncing the
    temp before the rename.  [tmp] overrides the temp path (default
    [path ^ ".tmp." ^ pid]).  On [Error] the destination still holds
    its previous content (only [Torn_rename] has already renamed). *)
val write_file_atomic :
  ?fsync:bool -> ?tmp:string -> string -> string -> (unit, error) result

(** Append [data] to [path] in one [write], fsyncing after (the outcome
    row discipline).  A short write — real or injected — leaves a torn
    tail for the tolerant readers and returns [Error]. *)
val append : ?fsync:bool -> string -> string -> (unit, error) result

(** Flush [oc] and fsync its descriptor ([path] names it for the error
    report only). *)
val sync_channel : string -> out_channel -> (unit, error) result

val rename : string -> string -> (unit, error) result
val read_file : string -> (string, error) result

(** [probe op path] — consult the armed chaos plan only, without
    performing any I/O: [Some err] when a fault fires.  For call sites
    with bespoke syscall sequences (the store's O_EXCL lock files)
    that still need to sit under the storm. *)
val probe : op -> string -> error option

(** [Result.get_ok] with {!Io_error} instead of [Invalid_argument]. *)
val get_ok : (unit, error) result -> unit
