(** The paper's evaluation as plain-text tables, printed by
    [exom bench --all].

    Tables 1-4 and the robustness telemetry come from the given
    results (one per {!Suite.rows} entry, in order; the cold pass of
    {!Perf.run_suite}).  Ablations A-D follow; they run their own
    localizations.  Every cell is deterministic except Table 4's
    seconds and ratio columns. *)

val print : Runner.result list -> unit
