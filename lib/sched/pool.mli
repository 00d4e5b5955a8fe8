(** A fixed-size OCaml 5 domain pool with a shared work queue.

    [jobs] is the total degree of parallelism: the coordinator thread
    participates in draining the queue during {!run}, so a pool of
    [jobs = n] spawns [n - 1] domains.  A pool of 1 runs everything
    inline on the caller — the sequential engine itself, not a
    simulation of it — which is the anchor for the scheduler's
    determinism guarantee.

    {!run} captures each task's exception into that task's result slot,
    so no task can end a worker domain: the pool keeps its size for its
    whole lifetime. *)

type t

(** [create ~jobs ()] — [jobs = 0] means [Domain.recommended_domain_count ()];
    defaults to 1 (inline execution, no domains). *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** Run every task to completion (blocking) and return their outcomes
    {e in submission order}, whatever order they executed in.  A task
    that raises yields [Error exn] in its slot; the remaining tasks
    still run.  Not reentrant: do not call [run] from inside a task.

    A caller that serializes order-sensitive work into one task (e.g.
    all switched runs of one static predicate, whose circuit breaker is
    a sequential state machine) and merges per-task accounting in list
    order gets output independent of the job count.

    With [obs], records the submitted batch size ([pool.tasks] counter,
    [pool.queue_depth] high-water gauge) identically on every execution
    path, so the metric tree is independent of [jobs]. *)
val run :
  ?obs:Exom_obs.Obs.t -> t -> (unit -> 'a) list -> ('a, exn) result list

(** Stop the workers and join their domains.  Idempotent.  [run] after
    shutdown raises [Invalid_argument]. *)
val shutdown : t -> unit

(** The job count requested by the [EXOM_JOBS] environment variable
    (1 when unset or unparsable; [0] maps to the recommended domain
    count). *)
val default_jobs : unit -> int

(** A lazily created process-wide pool sized by {!default_jobs}.  With
    the default of one job it never spawns a domain. *)
val default : unit -> t
