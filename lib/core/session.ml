module Ast = Exom_lang.Ast
module Interp = Exom_interp.Interp
module Profile = Exom_interp.Profile
module Proginfo = Exom_cfg.Proginfo
module Region = Exom_align.Region
module Relevant = Exom_ddg.Relevant
module Store = Exom_sched.Store
module Obs = Exom_obs.Obs
module Ledger = Exom_ledger.Ledger
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value

(* One recorded verification batch, replayed positionally on resume: the
   resumed demand loop re-executes all coordinator work (slicing,
   pruning, target selection) deterministically, and each verify_batch
   call consumes the next group instead of re-running — recorded events
   are re-emitted verbatim, verdicts are returned and seeded into the
   store, and the trailing checkpoint restores guard/store/metrics
   state.  A mismatch (the journal diverged from this session) drops the
   cursor and the batch runs live. *)
type replay_group = {
  rg_pairs : (int * int) list;
      (* unique (p, u) pairs, first-occurrence order — the match spine *)
  rg_queries : int;  (* total query count of the recorded batch *)
  rg_verdicts : ((int * int) * (Verdict.result * string)) list;
      (* per unique pair: result + evidence source *)
  rg_events : Ledger.event list;
      (* the Verify*/Batch/Checkpoint events, verbatim *)
  rg_total_runs : int;  (* cumulative verify.run count after the batch *)
  rg_checkpoint : Ledger.checkpoint option;
}

type t = {
  prog : Ast.program;
  info : Proginfo.t;
  input : int list;
  run : Interp.run;
  trace : Trace.t;
  region : Region.t;
  profile : Profile.t;
  rel : Relevant.t;
  correct_outputs : int list;  (* Ov: instance indices *)
  wrong_output : int;  (* o×, or the crash point for crash failures *)
  vexp : Value.t option;
      (* the value o× should have produced; [None] for crash failures,
         where no expected value exists and strong verification is
         unavailable *)
  budget : int;
  guard : Guard.t;
  chaos : Exom_interp.Chaos.t option;
      (* injected into switched re-executions only; the failing run
         under diagnosis is never subjected to chaos *)
  obs : Obs.t;
      (* the observability context: merged metrics (the successor of the
         old Tally) plus optional span recording; coordinator-owned *)
  store : Store.t;  (* verdict cache; possibly persistent *)
  ledger : Ledger.t option;
      (* provenance record of the run; appended to only on the
         coordinator, in program order, so its contents are j-invariant *)
  key_prefix : string;
      (* content hash of everything a verdict depends on besides
         (mode, p, u): program, input, expected stream, budget, chaos *)
  mutable replay : replay_group list;
      (* pending recorded batches (oldest first) a resumed run consumes
         instead of re-executing; [] for a fresh run or once exhausted *)
}

exception No_failure

(* Classify the failing run's outputs against the expected stream: the
   correct outputs Ov are the longest matching prefix, the first
   mismatch is the wrong output o×, and the expected value there is
   vexp.  Raises [No_failure] when the streams agree.

   Only the prefix counts as Ov: outputs *after* the divergence can
   match coincidentally (shifted streams, zero counters), and treating
   them as correct lets their control ancestors be pinned and the
   failure-inducing chain be pruned away — measured on the benchmark
   suite, prefix-only Ov locates every fault while whole-stream Ov
   loses four. *)
let classify_outputs ~outputs ~expected =
  let rec walk outs exps acc =
    match (outs, exps) with
    | (idx, v) :: outs', e :: exps' ->
      if v = e then walk outs' exps' (idx :: acc)
      else (List.rev acc, idx, Value.Vint e)
    | _, _ -> raise No_failure
    (* run produced a prefix of expected (or vice versa) with no
       mismatching value to anchor on *)
  in
  walk outputs expected []

(* A run that crashes — or spins until the step budget, the signature of
   an omitted loop-exit update — while its outputs match the expected
   prefix fails at its last (partially recorded) instance; there is no
   expected value there. *)
let classify ~(run : Interp.run) ~trace ~expected =
  match classify_outputs ~outputs:run.Interp.outputs ~expected with
  | ov, ox, vexp -> (ov, ox, Some vexp)
  | exception No_failure -> (
    match run.Interp.outcome with
    | Error (Interp.Crashed _ | Interp.Budget_exhausted)
      when Trace.length trace > 0 ->
      (List.map fst run.Interp.outputs, Trace.length trace - 1, None)
    | _ -> raise No_failure)

(* Everything a verdict depends on besides (mode, p, u).  The chaos spec
   is included so a store shared between chaotic and clean sessions can
   never serve a fault-injected verdict to a clean run. *)
let derive_key_prefix ~prog ~input ~expected ~budget ~chaos =
  let ints l = String.concat "," (List.map string_of_int l) in
  Store.digest
    [
      Marshal.to_string (prog : Ast.program) [];
      ints input;
      ints expected;
      string_of_int budget;
      (match chaos with None -> "" | Some c -> Exom_interp.Chaos.to_string c);
    ]

(* Resolve a trace instance into the self-contained reference the
   ledger stores (sid, source line, occurrence). *)
let ledger_inst ~info ~trace i =
  let inst = Trace.get trace i in
  {
    Ledger.idx = i;
    sid = inst.Trace.sid;
    line = Proginfo.line_of_sid info inst.Trace.sid;
    occ = inst.Trace.occ;
  }

let create ?obs ?(budget = Interp.default_budget) ?policy ?chaos ?store ?ledger
    ~prog ~input ~expected ~profile_inputs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  Obs.with_span obs ~cat:"session" "session.create" @@ fun () ->
  let run =
    Obs.with_span obs ~cat:"session" "session.failing_run" (fun () ->
        Interp.run ~obs ~budget prog ~input)
  in
  let trace =
    match run.Interp.trace with
    | Some t -> t
    | None -> invalid_arg "Session.create: tracing disabled"
  in
  let correct_outputs, wrong_output, vexp = classify ~run ~trace ~expected in
  let info = Proginfo.build prog in
  let store =
    match store with Some s -> s | None -> Store.create ~obs ()
  in
  let region =
    Obs.with_span obs ~cat:"session" "session.regions" (fun () ->
        Region.build trace)
  in
  let profile =
    Obs.with_span obs ~cat:"session" "session.profile" (fun () ->
        Profile.collect prog profile_inputs)
  in
  (match ledger with
  | Some l ->
    Ledger.session l
      ?chaos:(Option.map Exom_interp.Chaos.to_string chaos)
      ~wrong:(ledger_inst ~info ~trace wrong_output)
      ~vexp:(Option.map Value.to_string vexp)
      ~correct_outputs:(List.length correct_outputs)
      ~budget ~trace_len:(Trace.length trace)
  | None -> ());
  {
    prog;
    info;
    input;
    run;
    trace;
    region;
    profile;
    rel = Relevant.create info trace;
    correct_outputs;
    wrong_output;
    vexp;
    budget;
    guard = Guard.create ?policy ();
    chaos;
    obs;
    store;
    ledger;
    key_prefix = derive_key_prefix ~prog ~input ~expected ~budget ~chaos;
    replay = [];
  }

(* The ledger reference for a trace instance of this session. *)
let linst s i = ledger_inst ~info:s.info ~trace:s.trace i

(* The accounting views read the metrics registry: the verify.run timer
   holds what Tally.runs/Tally.seconds used to, verify.queries the old
   query count. *)
let verifications s = Exom_obs.Metrics.timer_count (Obs.metrics s.obs) "verify.run"
let verif_seconds s = Exom_obs.Metrics.timer_seconds (Obs.metrics s.obs) "verify.run"
let verify_queries s = Exom_obs.Metrics.counter_value (Obs.metrics s.obs) "verify.queries"
let store_stats s = Store.stats s.store
