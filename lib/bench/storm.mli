(** The [exom chaos] storm runner: seeded storage-fault campaigns over
    suite faults and generated corpus triples, composed with
    kill→resume cuts, asserting the standing invariants of
    the storage fault model (DESIGN.md §15):

    - a localization {e never raises} out of [Demand.locate], whatever
      the injected storage weather;
    - a located verdict under chaos {e matches the fault-free run's}
      (storage is caches and provenance, never the answer);
    - a resumed ledger is {e byte-identical} to the uninterrupted
      baseline — or the run is {e explicitly} DEGRADED with a matching
      verdict, never silently wrong;
    - every injected fault is {e accounted} in exactly one consumer
      counter ([Exom_util.Vfs.counters]: injected = acked).

    Deterministic in [seed]: the same storm replays the same faults at
    the same operations. *)

(** One storm leg's verdict: the label, what failed (empty = clean),
    and the fault accounting delta it was responsible for. *)
type leg = {
  leg_label : string;
  leg_ok : bool;
  leg_notes : string list;  (** violated invariants, oldest first *)
  leg_injected : int;  (** faults injected while this leg ran *)
  leg_acked : int;  (** of those, acknowledged by a consumer counter *)
}

type report = {
  r_seed : int;
  r_legs : leg list;
  r_wrong : int;  (** verdict mismatches vs the fault-free baselines *)
  r_raised : int;  (** exceptions that escaped a localization *)
  r_unaccounted : int;  (** injected - acked, summed over legs *)
  r_ack_tally : (string * int) list;  (** consumer counter → acks *)
  r_ok : bool;
}

(** [run ~seed ~dir ()] storms the storage layer under scratch
    directory [dir] (created; reused state is swept per leg):

    - per suite fault in [faults] (default gzipsim V2-F3 and grepsim
      V4-F2): a fault-free journaled baseline, a seeded {!Io_chaos}
      storm over the same localization, and a kill→resume cut whose
      resumed generation runs under a targeted journal-fsync ENOSPC;
    - when [corpus > 0] (default 20): a generated corpus campaign run
      fault-free, re-run under [Io_chaos], then resumed fault-free;
      every row of both re-runs must match the fault-free campaign's.

    [jobs] sizes the verification pools (default 2).  The armed plan is
    always disarmed on exit. *)
val run :
  ?jobs:int ->
  ?corpus:int ->
  ?faults:(string * string) list ->
  seed:int ->
  dir:string ->
  unit ->
  report

val report_to_json : report -> Exom_obs.Json.t
val render : report -> string
