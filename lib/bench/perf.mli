(** The perf snapshot behind [exom bench --all --metrics-out] and the
    committed [BENCH_exom.jsonl] baseline, and the direction table that
    [exom regress] gates it with.

    A snapshot is a registry of counters only.  It has no wall-clock
    figure, and every count is deterministic in the suite, the locator
    configuration and the corpus leg's (seed, count).  It is written
    with {!Exom_obs.Export.write_metrics}, the [exom.obs] codec that
    [exom stats] and [exom audit] read, and two snapshots compare with
    {!Exom_obs.Metrics.drift}.  The counters:
    - [suite.<bench>.<fault>.<field>] for each suite fault, and
      [suite.<field>] summed over the faults.  The fields are [found]
      (0 or 1), [verifications], [queries], [iterations], [edges],
      [prunings] and [interp_runs];
    - [warm.hits], [warm.queries] and [warm.switched_runs], from a
      pass over a disk store that an earlier pass filled;
    - with a corpus leg, [corpus.seed], [corpus.count],
      [corpus.located], [corpus.total], [corpus.failed], and
      [corpus.iterations] and [corpus.verifications] summed over the
      triples that ran. *)

type t = {
  results : Runner.result list;
      (** the cold pass, one result per {!Suite.rows} entry, in order *)
  metrics : Exom_obs.Metrics.t;  (** the snapshot *)
}

(** Run the whole suite three times: a cold pass (no store) that fills
    the [suite.*] counters, then a priming pass and a warm pass over
    one scratch disk store.  Each fault opens a fresh store handle, so
    warm hits are disk hits.  Only the warm pass is recorded.  With
    [corpus_count], also run the seed-1 generated corpus of that many
    triples.  [jobs] sizes the verification pool (default
    [EXOM_JOBS]).  [config] applies to every pass; with
    [{ Demand.default_config with ranking = false }] it measures the
    static verification order. *)
val run_suite :
  ?config:Exom_core.Demand.config ->
  ?jobs:int ->
  ?corpus_count:int ->
  unit ->
  t

(** The regress direction of a snapshot counter.  [found], [located]
    and [hits] breach when they fall; [corpus.seed] and [corpus.count]
    breach on any change, since another corpus is another baseline;
    every other count breaches when it grows. *)
val direction : string -> Exom_obs.Metrics.direction
