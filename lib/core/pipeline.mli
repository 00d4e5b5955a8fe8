(** The journaled locate pipeline: the one place that knows how a
    crash-safe localization (Algorithm 2, LocateFault) is assembled.

    A localization is two calls.  {!prepare} computes the corrected
    program's output, runs the failing traced run ({!Session.create})
    and builds the benign-state {!Oracle}.  {!locate} primes a
    {!Recover} plan when one matches the session, attaches the
    write-ahead journal (with its resume marker), runs
    {!Demand.locate} and closes the journal.  The CLI, the corpus
    campaign, the chaos storm and the bench runner all run this
    sequence, so the code tests exercise is the code they ship.

    What differs between callers stays with them: spans around the
    calls, timers, the canonical ledger write and its error policy. *)

(** Parse and typecheck one MCL source.  [name] prefixes the
    diagnostic ([name:line:col: message] for located errors). *)
val compile : name:string -> string -> (Exom_lang.Ast.program, string) result

(** The statements on a ground-truth source line: the [root_sids] of
    {!locate}.  [None] (no ground truth) is the impossible sid [-1], so
    the search runs to exhaustion.  A line that holds no statement (a
    comment, a blank, past the end) is an [Error]: searching for it
    would read as a localization miss. *)
val root_sids_of_line :
  Exom_lang.Ast.program -> int option -> (int list, string) result

type prepared = { session : Session.t; oracle : Oracle.t }

type setup_error =
  | No_failure  (** the two programs agree on this input *)
  | Setup_failed of string
      (** the corrected program, the failing run or the oracle raised *)

val setup_error_message : setup_error -> string

(** [prepare ~prog ~correct ~input ()] runs everything before the
    search.  The optional arguments are {!Session.create}'s, whose
    guard policy stays the default; [profile_inputs] defaults to
    [[input]].  With [session_timer], the
    session build (and nothing else) is timed under that name in the
    metrics registry of [obs]. *)
val prepare :
  ?obs:Exom_obs.Obs.t ->
  ?budget:int ->
  ?chaos:Exom_interp.Chaos.t ->
  ?store:Exom_sched.Store.t ->
  ?ledger:Exom_ledger.Ledger.t ->
  ?session_timer:string ->
  ?profile_inputs:int list list ->
  prog:Exom_lang.Ast.program ->
  correct:Exom_lang.Ast.program ->
  input:int list ->
  unit ->
  (prepared, setup_error) result

(** How {!locate} used the plan it was given. *)
type resume =
  | Cold  (** no plan given *)
  | Replayed of Recover.plan  (** the plan matched and was primed *)
  | Mismatched
      (** the plan describes another program, input, budget or chaos
          spec: ignored, the run started cold *)

(** The replay plan of a journal left at [path], if there is a readable
    one.  Read it before {!locate} re-attaches a journal to the same
    path: attaching truncates. *)
val journal_plan : string -> Recover.plan option

(** [locate prepared ~root_sids] runs the search.  With [resume], a
    plan matching the session is primed so its closed batches replay
    instead of re-executing.  With [journal] (and a ledger given to
    {!prepare}), every event is written ahead to that path — marked as
    a resumed continuation when the plan was replayed — and the journal
    is closed when the search ends.  The canonical ledger write is the
    caller's. *)
val locate :
  ?config:Demand.config ->
  ?pool:Exom_sched.Pool.t ->
  ?journal:string ->
  ?resume:Recover.plan ->
  prepared ->
  root_sids:int list ->
  Demand.report * resume

(** The store counters line of a report. *)
val store_line : Exom_sched.Store.stats -> string

(** The locate report text [exom locate] prints: the counts, the
    operational lines (scheduler, store, robustness and the failure
    journal), the verdict on [root_line] and the final candidate set. *)
val report_text :
  pool:Exom_sched.Pool.t ->
  Exom_cfg.Proginfo.t ->
  Demand.report ->
  root_line:int option ->
  string

(** The structured counterpart of {!report_text}: every deterministic
    count of a report, in a fixed key order.  The corpus campaign's
    outcome rows carry exactly these keys. *)
val counts_of_report : Demand.report -> (string * int) list
