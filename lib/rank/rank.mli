(** Evidence-driven ranking of PD candidates.

    Every verification of a candidate [(p, u)] costs a switched
    re-execution, but the paper's verifier orders candidates statically
    and learns nothing across runs.  This module turns the verdicts a
    run has already produced into a per-predicate posterior yield and
    uses it to (a) order each expansion's candidates so high-yield
    predicates verify first and (b) cut the low-yield tail of a
    predicate's instances once enough evidence has accumulated (the
    early-exit policy).

    Determinism contract: a scorer's output is a pure function of the
    sequence of {!observe} calls — no wall-clock, no randomness, no
    job-count or cache-state dependence.  All scores are rounded to 4
    decimals before they are compared or recorded, so ties (and
    therefore orders) are byte-stable across platforms. *)

(** The mutable scorer state for one localization run. *)
type t

val create : unit -> t

(** The prior yield every predicate starts from: 0.5, worth 2
    pseudo-observations. *)
val prior : float

(** Feed one verdict for static predicate [sid].  Call on the
    coordinator, in ledger order, with the verdicts {e returned} by a
    batch — those are identical whether they came from a live run, the
    store, or a resume replay, which is what keeps ranking warm/cold
    and kill/resume invariant. *)
val observe : t -> sid:int -> verdict:[ `Strong_id | `Id | `Not_id ] -> unit

(** Observations recorded for [sid] so far. *)
val observations : t -> sid:int -> int

(** The posterior yield of [sid], rounded to 4 decimals:
    [(2·strong + id + 2·prior) / (2·strong + id + not_id + 2)]. *)
val score : t -> sid:int -> float

(** One ranked candidate: kept candidates verify in list order; cut
    ones are skipped by this expansion (and recorded as such in the
    ledger's [rank] event). *)
type decision = { d_idx : int; d_sid : int; d_score : float; d_kept : bool }

(** [plan t candidates] ranks an expansion's candidates
    [(instance idx, sid)]: descending score, ties in ascending idx (so
    a run with no evidence reproduces the static order exactly).  A
    predicate's first-ranked instance is always kept; its later
    instances are cut iff it has at least 6 observations and its score
    is below 0.15. *)
val plan : t -> (int * int) list -> decision list
