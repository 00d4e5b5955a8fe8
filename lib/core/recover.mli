(** Salvage of a killed localization run.

    A journaled run ({!Exom_ledger.Ledger.attach_journal}) leaves a
    JSONL file whose last line may be torn.  This module turns it into
    a {e replay plan}: the closed verification batches (each terminated
    by its Checkpoint event) become {!Session.replay_group}s that a
    resumed {!Demand.locate} consumes positionally instead of
    re-executing, while everything the coordinator can recompute —
    slicing, pruning, expansion — runs again deterministically.  The
    resumed run therefore produces a byte-identical ledger and report,
    at any job count, having paid only for the work the killed run
    never finished. *)

type plan = {
  groups : Session.replay_group list;
      (** complete batches, oldest first *)
  session_ev : Exom_ledger.Ledger.event option;
      (** the journal's Session event, for {!matches_session} *)
  salvaged_events : int;  (** events the tolerant reader accepted *)
  replayed_batches : int;
  replayed_verifications : int;
      (** unique verifications inside complete batches *)
  dropped_events : int;
      (** trailing events of the batch in flight at the kill; the
          resumed run re-verifies these live *)
  iterations : int;  (** slice snapshots salvaged (incl. iteration 0) *)
  torn : Exom_obs.Jsonl.salvage option;
      (** the journal's last line, torn and dropped *)
  prior_resumes : int;  (** resume markers already present *)
  complete : bool;
      (** a Final event is present — the run finished; a resume replays
          it entirely from the journal, dispatching zero re-executions *)
}

(** Build a plan from a tolerant read ({!Exom_ledger.Ledger.recovery}). *)
val plan_of_recovery : Exom_ledger.Ledger.recovery -> plan

(** [plan_of_file path] = tolerant read + {!plan_of_recovery}.  [Error]
    only for unreadable files or corruption before the last line. *)
val plan_of_file : string -> (plan, string) result

(** Does the journal's Session event agree with this session's failing
    run (wrong-output instance, correct-output count, budget, trace
    length) and chaos spec?  A plan that doesn't match must not be
    primed — the journal belongs to a different program, input or
    configuration. *)
val matches_session : plan -> Session.t -> bool

(** Arm the session's replay cursor with the plan's groups.  Call
    before {!Demand.locate}. *)
val prime : Session.t -> plan -> unit

(** Human-readable salvage summary (the [exom recover] output body). *)
val describe : plan -> string
