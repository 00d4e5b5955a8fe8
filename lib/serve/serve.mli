(** A compatibility alias for the benchmark.  [benchmark/request.ml]
    and [benchmark/dune] name [Exom_serve.Serve.counts_of_report], and
    [BENCHMARK.json] lists [benchmark/] as the benchmark's own sources,
    which change only together with the benchmark.  The function lives
    in {!Exom_core.Pipeline}; this library goes when [benchmark/] next
    changes. *)

(** {!Exom_core.Pipeline.counts_of_report}. *)
val counts_of_report : Exom_core.Demand.report -> (string * int) list
