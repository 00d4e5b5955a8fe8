(** The experiment runner: executes one seeded fault end-to-end and
    collects every quantity of the paper's Tables 2-4. *)

type sizes = { static_size : int; dynamic_size : int }

type result = {
  bench : Bench_types.t;
  fault : Bench_types.fault;
  rs : sizes;  (** relevant slice of the wrong output *)
  ds : sizes;  (** dynamic slice *)
  ps : sizes;  (** initial pruned slice *)
  ips : sizes;  (** final pruned expanded slice *)
  os_ : sizes option;  (** failure-inducing dependence chain *)
  report : Exom_core.Demand.report;
  root_in_rs : bool;
  root_in_ds : bool;
  root_in_ps : bool;
  plain_seconds : float;
  graph_seconds : float;
  verif_seconds : float;
  trace_length : int;
  robustness : Exom_core.Guard.stats;
      (** switched-re-execution telemetry for this fault's locate run *)
}

(** [pool] drives the verification scheduler (inline sequential when
    omitted and [EXOM_JOBS] is unset); [store] supplies a verdict cache
    shared across faults or processes — results are identical at any
    job count and any store temperature (modulo timings).  [obs] is the
    observability context the session inherits (pass
    [Exom_obs.Obs.create ~trace:true ()] to record spans for
    [--trace-out]); timing fields are read back from its metrics
    registry ([runner.plain_run], [runner.session_build]).  [ledger]
    records the localization's provenance ([--ledger-out]). *)
val run_fault :
  ?obs:Exom_obs.Obs.t ->
  ?config:Exom_core.Demand.config ->
  ?budget:int ->
  ?chaos:Exom_interp.Chaos.t ->
  ?pool:Exom_sched.Pool.t ->
  ?store:Exom_sched.Store.t ->
  ?ledger:Exom_ledger.Ledger.t ->
  Bench_types.t ->
  Bench_types.fault ->
  result

(** Raises [Failure] when a fault does not typecheck, changes the
    statement count, or fails to manifest observably — as a wrong value
    at a shared output position, or as a crash/hang of the failing
    run. *)
val validate_fault : Bench_types.t -> Bench_types.fault -> unit

val validate_all : unit -> unit
