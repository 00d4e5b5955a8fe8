(** Deterministic, seed-driven fault injection for the interpreter.

    The demand-driven locator survives only as much hostility as its
    verification runs throw at it: switched re-executions routinely
    crash, loop until the budget timer, or (in a buggy interpreter or
    under memory pressure) die with an exception the slicing machinery
    never anticipated.  This module manufactures exactly those failures
    on purpose, from a single integer seed, so tests can sweep seeds and
    prove that no injected fault ever escapes the resilience layer.

    A chaos spec is threaded into {!Interp.run} by the verification
    engine only — the failing run under diagnosis is never injected —
    and fires at a seed-chosen step of the re-execution.  The same seed
    always produces the same fault at the same step. *)

type fault =
  | Crash_at of int
      (** abort with [Crashed] at step N — a plausible runtime error *)
  | Truncate_budget of int
      (** cap the step budget at N: a spuriously tight timer *)
  | Corrupt_value of int
      (** corrupt the value produced by the first assignment executed at
          or after step N (ints are bit-flipped, booleans negated),
          poisoning the program state and the recorded trace from there
          on *)
  | Raise_at of int
      (** raise {!Injected} at step N — an exception the interpreter
          does {e not} convert to an outcome, modelling the failure mode
          the resilience layer must contain *)

(** The one exception {!Interp.run} lets escape, by design. *)
exception Injected of string

type t = { seed : int; fault : fault }

(** [of_seed seed] derives a fault kind and a firing step (in
    [\[1, max_step\]], default 4096) deterministically from [seed].
    [Raise_at] is drawn twice as often as each other kind. *)
val of_seed : ?max_step:int -> int -> t

val fault_to_string : fault -> string

(** ["seed:fault"], e.g. ["0:exception injected at step 1"]: the text
    that identifies a spec in verdict-store keys and in a ledger's
    Session event. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {2 Interpreter hooks} — all are no-ops on [None]. *)

(** The effective step budget under the spec. *)
val budget_cap : t option -> int -> int

(** What happens at [step]: raises {!Injected} itself for [Raise_at];
    reports [`Crash] for [Crash_at] so the interpreter can route it
    through its normal abort machinery. *)
val action : t option -> step:int -> [ `Continue | `Crash of string ]

(** [Some corrupted] when a {!Corrupt_value} fault wants to fire at
    [step] and the value admits corruption; the caller is responsible
    for firing it at most once per run. *)
val corrupt : t option -> step:int -> Value.t -> Value.t option
