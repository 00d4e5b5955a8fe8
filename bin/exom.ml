(* exom: the command-line front end.

   Subcommands:
     run     execute an MCL program (optionally tracing it)
     info    front-end and static-analysis facts about a program
     slice   dynamic slice of one output
     rslice  relevant slice of one output (potential dependences)
     locate  full demand-driven localization against a corrected program
     explain causal narrative of a --ledger-out provenance ledger, or
             confidence analysis of a failing run (ranked candidates)
     recover inspect a killed run's journaled ledger (what --resume replays)
     dot     Graphviz rendering of the dynamic dependence graph
     regions the execution's region decomposition (Definition 3)
     bench   run one benchmark fault (or, with --all, the whole suite:
             the paper's tables and a count-only perf snapshot;
             --export writes the fault's sources and input as files)
     regress gate a perf snapshot against a baseline (Metrics.drift)
     stats   pretty-print one --metrics-out event log, or diff two
     audit   compare two runs' artifacts: span spine, metric drift and
             ledger events
     trace   operate on trace exports (trace spine)
     corpus  corpus factory: gen (seeded manifest of validated omission
             faults), run (one-process campaign, resumable from its
             ledger journals), report, mine (feature tables), seed
             (inject one fault in a file)
     chaos   seeded storage-fault storm over suite faults and corpus
             triples (io-chaos + kill/resume cuts);
             --check gates on the degradation-contract invariants      *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Loc = Exom_lang.Loc
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Proginfo = Exom_cfg.Proginfo
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Session = Exom_core.Session
module Oracle = Exom_core.Oracle
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Perf = Exom_bench.Perf
module Ledger = Exom_ledger.Ledger
module Lexplain = Exom_ledger.Explain
module Vfs = Exom_util.Vfs
module Jsonl = Exom_obs.Jsonl

open Cmdliner

let read_file path =
  Result.map_error (fun e -> e.Vfs.ve_msg) (Vfs.read_file path)

(* Crash-consistent: a kill mid-write leaves the old file or the new
   one, never a torn hybrid (same discipline as Ledger.write and the
   store's entry writer).  CLI outputs have no degradation tier — a
   failed write is the command's failure. *)
let write_file path content =
  Vfs.get_ok (Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path content)

let compile_file path =
  Result.bind (read_file path) (Pipeline.compile ~name:path)

(* A command's fallible set-up steps in sequence: the first [Error] is
   printed and the command exits 1. *)
let ( let* ) r k =
  match r with
  | Ok v -> k v
  | Error e ->
    prerr_endline e;
    1

(* Common options *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MCL source file")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "input"; "i" ] ~docv:"INTS"
        ~doc:"Program input: comma- or space-separated integers")

let text_arg =
  Arg.(
    value & opt (some string) None
    & info [ "text" ]
        ~doc:
          "Program input as text: encoded as length followed by character \
           codes (the convention of the benchmark programs)")

let resolve_input input text =
  match text with
  | Some t -> Ok (B.input_of_string t)
  | None -> Result.map_error (( ^ ) "exom: --input: ") (B.ints_of_string input)

let output_index_arg =
  Arg.(
    value & opt int 0
    & info [ "output"; "o" ] ~docv:"N" ~doc:"Index of the output to slice on (0-based)")

(* run *)

let run_cmd =
  let action file input text tracing =
    let* prog = compile_file file in
    let* input = resolve_input input text in
    let run = Interp.run ~tracing prog ~input in
    List.iter (fun (_, v) -> Printf.printf "%d\n" v) run.Interp.outputs;
    match run.Interp.outcome with
    | Ok () ->
      (match run.Interp.trace with
      | Some t ->
        Printf.eprintf "(%d steps, %d trace instances)\n" run.Interp.steps
          (Trace.length t)
      | None -> Printf.eprintf "(%d steps)\n" run.Interp.steps);
      0
    | Error Interp.Budget_exhausted ->
      prerr_endline "aborted: step budget exhausted";
      2
    | Error (Interp.Crashed msg) ->
      Printf.eprintf "crashed: %s\n" msg;
      2
  in
  let tracing =
    Arg.(value & flag & info [ "trace" ] ~doc:"Collect an execution trace")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an MCL program")
    Term.(const action $ file_arg $ input_arg $ text_arg $ tracing)

(* info *)

let info_cmd =
  let action file =
    let* prog = compile_file file in
    let info = Proginfo.build prog in
    Printf.printf "functions:  %d\n" (List.length prog.Ast.funcs);
    Printf.printf "globals:    %d\n" (List.length prog.Ast.globals);
    Printf.printf "statements: %d\n" (Ast.stmt_count prog);
    let preds = ref 0 in
    Ast.iter_program (fun s -> if Ast.is_predicate s then incr preds) prog;
    Printf.printf "predicates: %d\n" !preds;
    List.iter
      (fun fn ->
        let cfg = Proginfo.cfg_of info (Some fn.Ast.fname) in
        Printf.printf "cfg %-16s %3d nodes\n" fn.Ast.fname cfg.Exom_cfg.Cfg.nnodes)
      prog.Ast.funcs;
    0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Front-end and static-analysis facts")
    Term.(const action $ file_arg)

(* slice / rslice *)

let slice_common ~relevant file input text output_index =
  let* prog = compile_file file in
  let* input = resolve_input input text in
  let run = Interp.run prog ~input in
  let trace = Option.get run.Interp.trace in
  match List.nth_opt run.Interp.outputs output_index with
  | None ->
    Printf.eprintf "program produced %d outputs; no output %d\n"
      (List.length run.Interp.outputs) output_index;
    1
  | Some (criterion, value) ->
    let info = Proginfo.build prog in
    let slice =
      if relevant then
        Relevant.relevant_slice (Relevant.create info trace)
          ~criteria:[ criterion ]
      else Slice.compute trace ~criteria:[ criterion ]
    in
    Printf.printf "%s slice of output %d (value %d): %d statements, %d instances\n"
      (if relevant then "relevant" else "dynamic")
      output_index value (Slice.static_size slice) (Slice.dynamic_size slice);
    List.iter
      (fun sid ->
        let stmt = Proginfo.stmt_of_sid info sid in
        Printf.printf "  line %-4d %s\n" (Loc.line stmt.Ast.sloc)
          (Exom_lang.Pretty.stmt_head stmt))
      (Slice.sids slice);
    0

let slice_cmd =
  let action file input text output_index =
    slice_common ~relevant:false file input text output_index
  in
  Cmd.v
    (Cmd.info "slice" ~doc:"Dynamic slice of one output")
    Term.(const action $ file_arg $ input_arg $ text_arg $ output_index_arg)

let rslice_cmd =
  let action file input text output_index =
    slice_common ~relevant:true file input text output_index
  in
  Cmd.v
    (Cmd.info "rslice"
       ~doc:"Relevant slice of one output (explicit + potential dependences)")
    Term.(const action $ file_arg $ input_arg $ text_arg $ output_index_arg)

(* locate *)

module Guard = Exom_core.Guard
module Recover = Exom_core.Recover
module Chaos = Exom_interp.Chaos
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Obs = Exom_obs.Obs
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Json = Exom_obs.Json

(* Observability: span recording is enabled exactly when --trace-out is
   given (metrics are always live — reports are built from them). *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span tree as Chrome trace-event JSON to FILE \
           (loadable in chrome://tracing or Perfetto); also enables span \
           recording")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics (and spans, when recorded) as a \
           versioned JSONL event log to FILE; read it back with \
           $(b,exom stats)")

let ledger_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger-out" ] ~docv:"FILE"
        ~doc:
          "Write the localization's provenance ledger (per-iteration \
           slice snapshots, every verification with its alignment \
           evidence) as versioned JSONL to FILE; render it with \
           $(b,exom explain FILE).  Byte-identical at any -j")

let make_ledger ledger_out = Option.map (fun _ -> Ledger.create ()) ledger_out

let write_ledger ledger ~ledger_out =
  match (ledger_out, ledger) with
  | Some path, Some l ->
    (* the pipeline has closed any write-ahead journal on [path]; the
       canonical serialization replaces it atomically (byte-identical at
       any -j; resume markers and torn debris gone) *)
    Ledger.write path l;
    Printf.eprintf "ledger written to %s\n" path
  | _ -> ()

let make_obs ~trace_out = Obs.create ~trace:(trace_out <> None) ()

let write_obs obs ~trace_out ~metrics_out =
  (match trace_out with
  | Some path ->
    Vfs.get_ok (Export.write_chrome path obs);
    Printf.eprintf "trace written to %s\n" path
  | None -> ());
  match metrics_out with
  | Some path ->
    Vfs.get_ok (Export.write_jsonl path obs);
    Printf.eprintf "metrics written to %s\n" path
  | None -> ()

(* A converter over one of the string parsers: a malformed value is a
   usage error, rejected when the command line is parsed. *)
let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let jobs_conv = conv_of B.jobs_of_string Fmt.int

(* -j: verification scheduler parallelism.  Defaults to the EXOM_JOBS
   environment variable (1 when unset); 0 means one job per core. *)
let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Verification jobs: switched re-executions of one Demand \
           iteration run on N domains (0 = one per core; default \
           \\$(b,EXOM_JOBS) or 1).  Reports are identical at any N")

let make_pool = function
  | None -> Pool.default ()
  | Some j -> Pool.create ~jobs:j ()

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent verdict store: cached verification verdicts are \
           read from and written to DIR (created if missing), keyed by \
           content hash of program, input, switch, budget and mode")

let locate_cmd =
  let action file correct_file input text root_line chaos_seed jobs store_dir
      trace_out metrics_out ledger_out resume no_rank =
    let* faulty = compile_file file in
    let* correct = compile_file correct_file in
    let* root_sids =
      match (root_line, Pipeline.root_sids_of_line faulty root_line) with
      | Some line, Error e ->
        Error (Printf.sprintf "exom: --root-line %d: %s" line e)
      | _, roots -> roots
    in
    (* The salvage read happens before the journal is re-attached to
       the same path (attaching truncates). *)
    let* resume_plan =
      match resume with
      | None -> Ok None
      | Some path ->
        Recover.plan_of_file path
        |> Result.map Option.some
        |> Result.map_error (Printf.sprintf "%s: %s" path)
    in
    let* input = resolve_input input text in
    (* --resume implies journaling back to the same ledger path *)
    let ledger_out = if ledger_out = None then resume else ledger_out in
    let chaos = Option.map Chaos.of_seed chaos_seed in
    Option.iter (Format.eprintf "%a@." Chaos.pp) chaos;
    let pool = make_pool jobs in
    let obs = make_obs ~trace_out in
    let ledger = make_ledger ledger_out in
    let store = Option.map (fun dir -> Store.create ~obs ~dir ()) store_dir in
    let* prepared =
      Pipeline.prepare ~obs ?chaos ?store ?ledger ~prog:faulty ~correct
        ~input ()
      |> Result.map_error Pipeline.setup_error_message
    in
    let config = { Demand.default_config with ranking = not no_rank } in
    let report, resumed =
      Pipeline.locate ~config ~pool ?journal:ledger_out ?resume:resume_plan
        prepared ~root_sids
    in
    (match resumed with
    | Pipeline.Replayed plan ->
      Printf.printf
        "resume: %d batch(es) (%d verifications) replayed from the journal, \
         %d in-flight event(s) re-verified live%s\n"
        plan.Recover.replayed_batches plan.Recover.replayed_verifications
        plan.Recover.dropped_events
        (match plan.Recover.torn with
        | Some t -> " (" ^ Jsonl.torn_message t ^ ")"
        | None -> "")
    | Pipeline.Mismatched ->
      prerr_endline
        "resume: journal does not describe this program/input/budget/chaos \
         seed; starting cold"
    | Pipeline.Cold -> ());
    write_obs obs ~trace_out ~metrics_out;
    write_ledger ledger ~ledger_out;
    print_string
      (Pipeline.report_text ~pool prepared.Pipeline.session.Session.info report
         ~root_line);
    0
  in
  let correct_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "correct" ] ~docv:"FILE" ~doc:"The corrected program (the oracle)")
  in
  let root_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "root-line" ] ~docv:"LINE"
          ~doc:"Ground-truth fault line (stops the search when reached)")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Inject a deterministic, seed-derived fault (crash, budget \
             truncation, value corruption, or a raw exception) into every \
             switched re-execution; the locator must degrade, not die")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"LEDGER"
          ~doc:
            "Resume a killed localization from its journaled ledger \
             (written by --ledger-out): completed verification batches \
             are replayed from the journal instead of re-executed, the \
             batch in flight at the kill is re-verified live, and the \
             final report and ledger are byte-identical to an \
             uninterrupted run.  Implies $(b,--ledger-out) LEDGER \
             unless given.  Pass the same program, input and flags as \
             the killed run — a mismatched journal is detected and the \
             run starts cold")
  in
  let no_rank_arg =
    Arg.(
      value & flag
      & info [ "no-rank" ]
          ~doc:
            "Disable evidence-driven verification ordering: candidates \
             verify in the paper's static order with the static breaker \
             threshold (the control for ranked-vs-static comparisons)")
  in
  Cmd.v
    (Cmd.info "locate"
       ~doc:"Demand-driven execution-omission-error localization")
    Term.(
      const action $ file_arg $ correct_arg $ input_arg $ text_arg $ root_arg
      $ chaos_seed_arg $ jobs_arg $ store_arg $ trace_out_arg $ metrics_out_arg
      $ ledger_out_arg $ resume_arg $ no_rank_arg)

(* recover *)

let recover_cmd =
  let action file =
    match Recover.plan_of_file file with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      1
    | Ok plan ->
      Printf.printf "%s:\n" file;
      print_string (Recover.describe plan);
      0
  in
  let ledger_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER"
          ~doc:
            "A journaled (possibly torn) provenance ledger left behind \
             by a killed $(b,exom locate --ledger-out) run")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Inspect a killed run's journaled ledger: what is salvageable, \
          what a $(b,--resume) would replay, and whether the tail was torn")
    Term.(const action $ ledger_file_arg)

(* explain

   Two modes sharing one entry point, distinguished by sniffing the
   positional FILE: a provenance ledger (written by --ledger-out)
   renders as a causal narrative; an MCL source falls back to the
   confidence analysis (which then needs --correct). *)

let explain_ledger file content dot_out =
  (* Strict parse first (a corrupted ledger must not render); a file
     that fails it may still be a killed run's journal — resume markers
     and a torn tail are exactly what the salvage reader tolerates, and
     what the lineage section of the narrative is for. *)
  let parsed =
    match Ledger.of_string content with
    | Ok events -> Ok (events, None, [])
    | Error strict_err -> (
      match Ledger.recover_string content with
      | Ok r ->
        Printf.eprintf
          "%s: salvaged journal (%d event(s)%s)\n" file
          (List.length r.Ledger.r_events)
          (match r.Ledger.r_torn with
          | Some t -> ", " ^ Jsonl.torn_message t
          | None -> "");
        Ok
          ( r.Ledger.r_events,
            Some
              {
                Lexplain.resumes = r.Ledger.r_markers;
                torn_tail = r.Ledger.r_torn <> None;
              },
            r.Ledger.r_resumes )
      | Error _ -> Error strict_err)
  in
  match parsed with
  | Error e ->
    Printf.eprintf "%s: %s\n" file e;
    1
  | Ok (events, lineage, replay) ->
    print_string (Lexplain.render ?lineage ~replay events);
    (match dot_out with
    | Some path ->
      write_file path (Lexplain.dot events);
      Printf.eprintf "causal graph written to %s\n" path
    | None -> ());
    0

let explain_cmd =
  let action file correct_file input text top dot_out =
    match read_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok content when Ledger.is_ledger content ->
      explain_ledger file content dot_out
    | Ok _ -> (
    match correct_file with
    | None ->
      prerr_endline
        "exom explain: FILE is not a provenance ledger, so this is the \
         confidence analysis — which needs --correct FILE";
      1
    | Some correct_file -> (
      let* faulty = compile_file file in
      let* correct = compile_file correct_file in
      let* input = resolve_input input text in
      let expected = Oracle.expected ~correct_prog:correct ~input in
      match
        Session.create ~prog:faulty ~input ~expected ~profile_inputs:[ input ]
          ()
      with
      | exception Session.No_failure ->
        prerr_endline "the two programs agree on this input";
        1
      | session ->
        let info = session.Session.info in
        let trace = session.Session.trace in
        let conf =
          Exom_conf.Confidence.compute info session.Session.profile trace
            ~correct:session.Session.correct_outputs ~benign:[] ~implicit:[]
        in
        let slice =
          Exom_ddg.Slice.compute trace
            ~criteria:[ session.Session.wrong_output ]
        in
        let ps =
          Exom_conf.Prune.compute trace ~slice ~conf
            ~criterion:session.Session.wrong_output
        in
        Printf.printf
          "failure at instance #%d (line %d)%s; slice %d/%d; pruned %d\n\n"
          session.Session.wrong_output
          (Proginfo.line_of_sid info
             (Exom_interp.Trace.get trace session.Session.wrong_output)
               .Exom_interp.Trace.sid)
          (match session.Session.vexp with
          | Some v -> Printf.sprintf ", expected %s" (Exom_interp.Value.to_string v)
          | None -> " (crash)")
          (Exom_ddg.Slice.static_size slice)
          (Exom_ddg.Slice.dynamic_size slice)
          (Exom_conf.Prune.size ps);
        print_endline
          "most suspicious instances (confidence, dependence distance, alt \
           set):";
        List.iteri
          (fun i (e : Exom_conf.Prune.entry) ->
            if i < top then begin
              let inst = Exom_interp.Trace.get trace e.Exom_conf.Prune.idx in
              let stmt = Proginfo.stmt_of_sid info inst.Exom_interp.Trace.sid in
              let alt =
                match Exom_conf.Confidence.alt_set conf e.Exom_conf.Prune.idx with
                | None -> "unconstrained"
                | Some s ->
                  Printf.sprintf "{%s}"
                    (String.concat ","
                       (List.map Exom_interp.Value.to_string
                          (Exom_conf.Confidence.Vset.elements s)))
              in
              Printf.printf "  %.3f  d=%-3d line %-4d occ %-3d = %-6s %s  %s\n"
                e.Exom_conf.Prune.confidence e.Exom_conf.Prune.distance
                (Exom_lang.Loc.line stmt.Ast.sloc)
                inst.Exom_interp.Trace.occ
                (Exom_interp.Value.to_string inst.Exom_interp.Trace.value)
                (Exom_lang.Pretty.stmt_head stmt)
                alt
            end)
          (Exom_conf.Prune.entries ps);
        0))
  in
  let correct_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "correct" ] ~docv:"FILE"
          ~doc:"The corrected program (confidence mode only)")
  in
  let top_arg =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Number of ranked instances to show")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Also export the verified causal graph as Graphviz (ledger mode \
             only)")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Causal narrative of a provenance ledger (from --ledger-out), or \
          confidence analysis of a failing run (with --correct)")
    Term.(
      const action $ file_arg $ correct_arg $ input_arg $ text_arg $ top_arg
      $ dot_arg)

(* dot *)

let dot_cmd =
  let action file input text output_index full =
    let* prog = compile_file file in
    let* input = resolve_input input text in
    let run = Interp.run prog ~input in
    let trace = Option.get run.Interp.trace in
    let info = Proginfo.build prog in
    let describe idx =
      let inst = Exom_interp.Trace.get trace idx in
      Printf.sprintf "L%d #%d = %s"
        (Proginfo.line_of_sid info inst.Exom_interp.Trace.sid)
        idx
        (Exom_interp.Value.to_string inst.Exom_interp.Trace.value)
    in
    match List.nth_opt run.Interp.outputs output_index with
    | None ->
      Printf.eprintf "no output %d\n" output_index;
      1
    | Some (criterion, _) ->
      let slice =
        if full then None
        else Some (Slice.compute trace ~criteria:[ criterion ])
      in
      print_string
        (Exom_ddg.Dot.render ?slice ~highlight:[ criterion ] ~describe trace);
      0
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Render the whole trace, not just the slice")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Graphviz rendering of the dynamic dependence graph (slice of one output)")
    Term.(
      const action $ file_arg $ input_arg $ text_arg $ output_index_arg $ full)

(* regions *)

let regions_cmd =
  let action file input text by_line =
    let* prog = compile_file file in
    let* input = resolve_input input text in
    let run = Interp.run prog ~input in
    let trace = Option.get run.Interp.trace in
    let reg = Exom_align.Region.build trace in
    let info = Proginfo.build prog in
    let label =
      if by_line then
        Some
          (fun r idx ->
            Proginfo.line_of_sid info (Exom_align.Region.sid r idx))
      else None
    in
    print_endline (Exom_align.Region.render_forest ?label reg);
    0
  in
  let by_line =
    Arg.(
      value & flag
      & info [ "lines" ] ~doc:"Label regions with source lines instead of statement ids")
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:"The execution's region decomposition (Definition 3), paper-style")
    Term.(const action $ file_arg $ input_arg $ text_arg $ by_line)

(* bench *)

let bench_suite jobs corpus_count no_rank metrics_out =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let config = { Demand.default_config with Demand.ranking = not no_rank } in
  let s = Perf.run_suite ~config ~jobs ?corpus_count () in
  Exom_bench.Tables.print s.Perf.results;
  let v = Metrics.counter_value s.Perf.metrics in
  Printf.printf
    "suite (%d job(s)): %d/%d located, %d switched runs, %d interpreter \
     runs, %d queries\n"
    jobs (v "suite.found") (List.length s.Perf.results)
    (v "suite.verifications") (v "suite.interp_runs") (v "suite.queries");
  Printf.printf "warm store: %d/%d hits, %d switched run(s) dispatched\n"
    (v "warm.hits") (v "warm.queries") (v "warm.switched_runs");
  if corpus_count <> None then
    Printf.printf
      "corpus (seed %d x %d): %d/%d located, %d failed, %d iterations, %d \
       verifications\n"
      (v "corpus.seed") (v "corpus.count") (v "corpus.located")
      (v "corpus.total") (v "corpus.failed") (v "corpus.iterations")
      (v "corpus.verifications");
  Option.iter
    (fun path ->
      Vfs.get_ok (Export.write_metrics path s.Perf.metrics);
      Printf.eprintf "snapshot written to %s\n" path)
    metrics_out;
  0

(* A fault as four files: the sources, the failing input and the
   ground-truth root line ([bench --export], [corpus seed -o]). *)
let write_fault_files dir ~faulty ~correct ~input ~root_line =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file (Filename.concat dir "faulty.mc") faulty;
  write_file (Filename.concat dir "correct.mc") correct;
  write_file
    (Filename.concat dir "input.txt")
    (String.concat " " (List.map string_of_int input) ^ "\n");
  write_file
    (Filename.concat dir "root_line.txt")
    (string_of_int root_line ^ "\n")

let bench_export name fid dir bench fault =
  write_fault_files dir
    ~faulty:(B.faulty_source bench fault)
    ~correct:bench.B.source ~input:fault.B.failing_input
    ~root_line:(B.fault_line bench fault);
  Printf.printf
    "%s %s exported to %s (faulty.mc correct.mc input.txt root_line.txt)\n"
    name fid dir;
  0

let bench_one name fid jobs store_dir trace_out metrics_out ledger_out export
    no_rank =
  match Suite.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s (have: %s)\n" name
        (String.concat ", " (List.map (fun b -> b.B.name) Suite.all));
      1
    | Some bench -> (
      match Suite.find_fault bench fid with
      | None ->
        Printf.eprintf "unknown fault %s (have: %s)\n" fid
          (String.concat ", "
             (List.map (fun f -> f.B.fid) bench.B.faults));
        1
      | Some fault when export <> None ->
        bench_export name fid (Option.get export) bench fault
      | Some fault ->
        let pool = make_pool jobs in
        let obs = make_obs ~trace_out in
        let store =
          Option.map (fun dir -> Store.create ~obs ~dir ()) store_dir
        in
        let ledger = make_ledger ledger_out in
        let config =
          { Demand.default_config with Demand.ranking = not no_rank }
        in
        let r = Runner.run_fault ~obs ~pool ?store ?ledger ~config bench fault in
        write_obs obs ~trace_out ~metrics_out;
        write_ledger ledger ~ledger_out;
        Printf.printf "%s %s (%d job(s)): %s\n" name fid (Pool.jobs pool)
          fault.B.description;
        Printf.printf
          "  RS %d/%d  DS %d/%d  PS %d/%d  IPS %d/%d\n"
          r.Runner.rs.Runner.static_size r.Runner.rs.Runner.dynamic_size
          r.Runner.ds.Runner.static_size r.Runner.ds.Runner.dynamic_size
          r.Runner.ps.Runner.static_size r.Runner.ps.Runner.dynamic_size
          r.Runner.ips.Runner.static_size r.Runner.ips.Runner.dynamic_size;
        Printf.printf
          "  prunings %d, verifications %d (of %d queries), iterations %d, \
           edges %d -> %s\n"
          r.Runner.report.Demand.user_prunings
          r.Runner.report.Demand.verifications
          r.Runner.report.Demand.verify_queries
          r.Runner.report.Demand.iterations
          r.Runner.report.Demand.expanded_edges
          (if r.Runner.report.Demand.found then "LOCATED" else "not located");
        Printf.printf "  %s\n" (Pipeline.store_line r.Runner.report.Demand.store);
        let g = r.Runner.robustness in
        Printf.printf
          "  robustness: %d completed, %d aborted, breaker trips/skips \
           %d/%d, captured %d\n"
          g.Guard.completed g.Guard.aborted g.Guard.breaker_trips
          g.Guard.breaker_skips g.Guard.captured;
        0)

let bench_cmd =
  let action name fid all jobs store_dir trace_out metrics_out ledger_out
      export corpus_count no_rank =
    (* a flag outside its mode is refused, never silently dropped *)
    let stray =
      List.find_map
        (fun (flag, given) -> if given then Some flag else None)
        (if all then
           [ ("--trace-out", trace_out <> None);
             ("--ledger-out", ledger_out <> None);
             ("--store", store_dir <> None);
             ("--export", export <> None) ]
         else [ ("--corpus", corpus_count <> None) ])
    in
    match (stray, name, fid) with
    | Some flag, _, _ ->
      Printf.eprintf "exom bench: %s cannot be used %s --all\n" flag
        (if all then "with" else "without");
      1
    | None, _, _ when all -> bench_suite jobs corpus_count no_rank metrics_out
    | None, Some name, Some fid ->
      bench_one name fid jobs store_dir trace_out metrics_out ledger_out export
        no_rank
    | None, _, _ ->
      prerr_endline "exom bench: need BENCH FAULT (or --all for the suite)";
      1
  in
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"flexsim | grepsim | gzipsim | sedsim")
  in
  let fid_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"FAULT" ~doc:"Fault id, e.g. V2-F3")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Run the whole suite: print the paper's Tables 1-4, the \
             robustness table and Ablations A-D, and reduce the run to a \
             count-only perf snapshot, which $(b,--metrics-out) writes for \
             $(b,exom regress)")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Instead of running the fault, write its materials to DIR: \
             $(b,faulty.mc), $(b,correct.mc), $(b,input.txt) (failing \
             input as integers) and $(b,root_line.txt), the arguments \
             of an $(b,exom locate) run.  That run is not the same \
             localization: $(b,locate) profiles values on the failing \
             input only, while $(b,bench) profiles the fault's test \
             inputs, so their searches can differ")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "corpus" ] ~docv:"N"
          ~doc:
            "With --all: also run a fixed-seed N-triple generated-corpus \
             campaign and record it as the snapshot's corpus leg")
  in
  let no_rank_arg =
    Arg.(
      value & flag
      & info [ "no-rank" ]
          ~doc:
            "Run under the static verification order instead of \
             evidence-driven ranking")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run one benchmark fault from the built-in suite, or the whole \
          suite with --all")
    Term.(
      const action $ name_arg $ fid_arg $ all_arg $ jobs_arg $ store_arg
      $ trace_out_arg $ metrics_out_arg $ ledger_out_arg $ export_arg
      $ corpus_arg $ no_rank_arg)

let warn_salvaged file =
  Option.iter (fun t ->
      Printf.eprintf "%s: %s (salvaged)\n" file (Jsonl.torn_message t))

(* A --metrics-out event log or perf snapshot as a registry, with the
   torn final line the reader dropped, if any. *)
let read_metrics file =
  Result.bind (read_file file) (fun content ->
      Result.map_error
        (Printf.sprintf "%s: %s" file)
        (Export.metrics_of_jsonl content))

(* regress *)

let regress_cmd =
  (* a snapshot is written whole, so a torn one is refused, not salvaged *)
  let load file =
    match read_metrics file with
    | Ok (reg, None) -> Ok reg
    | Ok (_, Some { Export.torn_line; _ }) ->
      Error
        (Printf.sprintf
           "%s: torn record at line %d (a snapshot is not salvaged)" file
           torn_line)
    | Error e -> Error e
  in
  let action old_file new_file check =
    let* older = load old_file in
    let* newer = load new_file in
    let findings = Metrics.drift ~direction_of:Perf.direction older newer in
    print_string (Metrics.render_drift findings);
    if check && Metrics.has_drift findings then 1 else 0
  in
  let snapshot_arg n docv doc =
    Arg.(required & pos n (some file) None & info [] ~docv ~doc)
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Exit non-zero if any counter drifted")
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Compare two perf snapshots from $(b,exom bench --all \
          --metrics-out): a count that grows, or a found, located or hits \
          count that falls, drifts; so does another corpus seed or count")
    Term.(
      const action
      $ snapshot_arg 0 "OLD" "Baseline snapshot"
      $ snapshot_arg 1 "NEW" "Candidate snapshot"
      $ check_arg)

(* stats *)

let stats_cmd =
  let load file =
    match read_metrics file with
    | Ok (reg, salvaged) ->
      warn_salvaged file salvaged;
      Ok reg
    | Error e -> Error e
  in
  let action file file2 no_timings =
    let timings = not no_timings in
    let* reg = load file in
    match file2 with
    | None ->
      print_string (Metrics.render ~timings reg);
      0
    | Some file2 ->
      let* reg2 = load file2 in
      print_string (Metrics.render_diff ~timings reg reg2);
      0
  in
  let stats_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A JSONL event log written by --metrics-out")
  in
  let stats_file2_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE2"
          ~doc:"A second event log to compare against (side-by-side diff)")
  in
  let no_timings_arg =
    Arg.(
      value & flag
      & info [ "no-timings" ]
          ~doc:
            "Suppress wall-clock figures, leaving the subset that is \
             bit-identical across job counts and machines")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print the metric tree of a --metrics-out event log, or \
          diff two of them")
    Term.(const action $ stats_file_arg $ stats_file2_arg $ no_timings_arg)

(* corpus *)

module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Campaign = Exom_corpus.Campaign
module Mine = Exom_corpus.Mine

let fault_class_conv =
  conv_of
    (fun s ->
      Option.to_result
        ~none:(Printf.sprintf "unknown fault class %S" s)
        (Seeder.class_of_string (String.trim s)))
    (fun ppf c -> Fmt.string ppf (Seeder.class_to_string c))

let corpus_classes_arg =
  Arg.(
    value
    & opt (some (list fault_class_conv)) None
    & info [ "classes" ] ~docv:"C1,C2"
        ~doc:
          "Restrict seeding to these fault classes (stmt_delete, \
           guard_strengthen, guard_weaken, call_drop, flag_init)")

let corpus_gen_cmd =
  let action seed count family classes out =
    match Campaign.generate ?classes ~family ~seed ~count () with
    | exception Failure e ->
      Printf.eprintf "%s\n" e;
      1
    | manifest ->
      Campaign.write_manifest out manifest;
      Printf.eprintf "%d triples (family %s, %d generation attempts) -> %s\n"
        (List.length manifest.Campaign.m_triples)
        manifest.Campaign.m_family manifest.Campaign.m_attempts out;
      0
  in
  let seed_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "seed" ] ~docv:"S" ~doc:"Corpus seed (determines every triple)")
  in
  let count_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Validated triples to generate")
  in
  let family_arg =
    Arg.(
      value & opt string "mixed"
      & info [ "family" ] ~docv:"FAM"
          ~doc:
            "Program family: small, medium, large, or mixed (rotate all \
             three)")
  in
  let out_arg =
    Arg.(
      value & opt string "manifest.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Manifest output path")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a corpus manifest: factory programs + seeded, validated \
          execution-omission faults.  Byte-deterministic in (seed, count, \
          family, classes)")
    Term.(
      const action $ seed_arg $ count_arg $ family_arg $ corpus_classes_arg
      $ out_arg)

let corpus_run_cmd =
  let action manifest_path dir jobs resume =
    match Campaign.load_manifest manifest_path with
    | Error e ->
      Printf.eprintf "%s: %s\n" manifest_path e;
      1
    | Ok manifest ->
      let rows = Campaign.run ?jobs ~resume ~dir ~manifest () in
      print_string (Campaign.render_summary (Campaign.summarize rows));
      Printf.printf "outcomes: %s\n" (Filename.concat dir "outcomes.jsonl");
      Printf.printf "metrics: %s\n" (Campaign.campaign_metrics dir);
      0
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST" ~doc:"Corpus manifest (from corpus gen)")
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Campaign directory: shared store, ledger journals and outcome \
             rows live here")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Keep what is already under --dir: every triple replays or \
             resumes its ledger journal, and runs cold when the journal \
             belongs to another triple")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the localization campaign over a corpus manifest in one \
          process against one shared store; crash-safe and resumable \
          (--resume)")
    Term.(const action $ manifest_arg $ dir_arg $ jobs_arg $ resume_flag)

(* [report] and [mine] read the same rows: a campaign directory's
   outcomes.jsonl, or the file itself; a bad file exits 1 *)
let with_corpus_rows path k =
  let file =
    if Sys.is_directory path then Filename.concat path "outcomes.jsonl"
    else path
  in
  let* rows = Campaign.read_outcomes file in
  if rows = [] then begin
    Printf.eprintf "no outcome rows in %s\n" file;
    1
  end
  else k rows

let corpus_report_cmd =
  let action path min_located =
    with_corpus_rows path (fun rows ->
        let s = Campaign.summarize rows in
        print_string (Campaign.render_summary s);
        print_string (Campaign.render_rollup rows);
        match min_located with
        | None -> 0
        | Some floor ->
          let rate =
            float_of_int s.Campaign.s_located /. float_of_int s.Campaign.s_total
          in
          if rate >= floor then 0
          else begin
            Printf.eprintf "located rate %.3f below floor %.3f\n" rate floor;
            1
          end)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"Campaign directory or outcomes.jsonl")
  in
  let floor_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-located" ] ~docv:"RATE"
          ~doc:"Exit nonzero when the located rate is below RATE (0..1)")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize campaign outcomes (optionally gate on located rate)")
    Term.(const action $ path_arg $ floor_arg)

let corpus_mine_cmd =
  let action path =
    with_corpus_rows path (fun rows ->
        print_string (Mine.render (Mine.mine rows));
        0)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"Campaign directory or outcomes.jsonl")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Mine campaign outcomes into feature tables (located rate, \
          iterations and verifications by fault class, family, program \
          size, predicate density)")
    Term.(const action $ path_arg)

let corpus_seed_cmd =
  let action file seed cls line input out =
    let* source = read_file file in
    let* prog = Pipeline.compile ~name:file source in
    let* input = resolve_input input None in
    let line_of_sid p sid =
      let l = ref 0 in
      Ast.iter_program
        (fun st -> if st.Ast.sid = sid then l := Loc.line st.Ast.sloc)
        p;
      !l
    in
    let sites =
      Seeder.sites prog
      |> List.filter (fun (c, sid) ->
             (match cls with Some cls -> c = cls | None -> true)
             &&
             match line with
             | Some line -> line_of_sid prog sid = line
             | None -> true)
    in
    let inputs =
      if input = [] then
        let st = Random.State.make [| 0x0fa1; seed |] in
        List.init 6 (fun _ ->
            List.init
              (8 + Random.State.int st 9)
              (fun _ -> Random.State.int st 101 - 50))
      else [ input ]
    in
    let validated =
      List.find_map
        (fun (c, sid) ->
          match Seeder.apply prog c sid with
          | None -> None
          | Some faulty ->
            List.find_opt
              (fun input -> Seeder.validates ~correct:prog ~faulty ~input)
              inputs
            |> Option.map (fun input -> (c, sid, faulty, input)))
        sites
    in
    match validated with
    | None ->
      Printf.eprintf
        "no validated omission fault at the requested sites (%d candidates)\n"
        (List.length sites);
      1
    | Some (c, sid, faulty, input) ->
      (* the emitted faulty.mc is the pretty-printed mutant, so the
         recorded root line must use its numbering, not the input
         file's (sids survive the reparse: mutations preserve
         statement order and count) *)
      let line = line_of_sid faulty sid in
      let faulty_src = Exom_lang.Pretty.program_to_string faulty in
      (match out with
      | Some dir ->
        write_fault_files dir ~faulty:faulty_src ~correct:source ~input
          ~root_line:line
      | None -> print_string faulty_src);
      Printf.eprintf
        "seeded %s at line %d (sid %d), failing input: %s\n"
        (Seeder.class_to_string c) line sid
        (String.concat "," (List.map string_of_int input));
      0
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for candidate-input derivation")
  in
  let class_arg =
    Arg.(
      value
      & opt (some fault_class_conv) None
      & info [ "class" ] ~docv:"CLS" ~doc:"Restrict to one fault class")
  in
  let line_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "line" ] ~docv:"N" ~doc:"Restrict to statements on line N")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "Write faulty.mc, correct.mc, input.txt and root_line.txt to \
             DIR (default: faulty source on stdout)")
  in
  Cmd.v
    (Cmd.info "seed"
       ~doc:
         "Seed one validated execution-omission fault into a correct MCL \
          program")
    Term.(
      const action $ file_arg $ seed_arg $ class_arg $ line_arg $ input_arg
      $ out_arg)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Corpus factory: generate seeded omission faults, run resumable \
          campaigns over them, mine the evidence")
    [ corpus_gen_cmd; corpus_run_cmd; corpus_report_cmd; corpus_mine_cmd;
      corpus_seed_cmd ]

(* chaos *)

module Storm = Exom_bench.Storm

let chaos_cmd =
  let action seed jobs corpus dir out faults check =
    let faults = match faults with [] -> None | fs -> Some fs in
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "exom_chaos_%d" (Unix.getpid ()))
    in
    match Storm.run ~jobs ~corpus ?faults ~seed ~dir () with
    | exception Invalid_argument m | exception Failure m ->
      Printf.eprintf "exom chaos: %s\n" m;
      1
    | report ->
      print_string (Storm.render report);
      (match out with
      | Some path ->
        write_file path (Json.to_string (Storm.report_to_json report) ^ "\n");
        Printf.eprintf "storm report written to %s\n" path
      | None -> ());
      if check && not report.Storm.r_ok then 1 else 0
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Storm seed: the same seed replays the same faults")
  in
  let jobs_arg =
    Arg.(
      value & opt jobs_conv 2
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Verification pool size per localization")
  in
  let corpus_arg =
    Arg.(
      value & opt int 20
      & info [ "corpus" ] ~docv:"N"
          ~doc:"Corpus triples for the campaign legs (0 disables them)")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Scratch workspace for journals, stores and campaign state \
             (default: a per-process directory under the system temp dir)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the storm report as JSON")
  in
  let faults_arg =
    let fault_ref_conv =
      conv_of B.fault_ref_of_string (fun ppf (b, f) -> Fmt.pf ppf "%s/%s" b f)
    in
    Arg.(
      value & opt_all fault_ref_conv []
      & info [ "fault" ] ~docv:"BENCH/FID"
          ~doc:
            "Suite fault to storm, as $(b,bench/fault-id) (repeatable; \
             default gzipsim/V2-F3 and grepsim/V4-F2)")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero on any violated invariant: a raised \
             localization, a wrong verdict, a non-identical undegraded \
             resume, or an unaccounted injected fault")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Storm every persistence path with seeded storage faults \
          (ENOSPC, EIO, torn writes, torn renames) composed with \
          kill+resume cuts, and audit the degradation contracts")
    Term.(
      const action $ seed_arg $ jobs_arg $ corpus_arg $ dir_arg $ out_arg
      $ faults_arg $ check_arg)

(* audit *)

module Audit = Exom_audit
module Spine = Exom_obs.Spine

let lanes_conv =
  conv_of
    (fun s ->
      Option.to_result
        ~none:(Printf.sprintf "unknown lane projection %S" s)
        (Spine.lanes_of_string s))
    (fun ppf l -> Fmt.string ppf (Spine.lanes_to_string l))

let audit_cmd =
  let action run_a run_b spine metrics ledger lanes tolerance check =
    let legs =
      (if spine then [ Audit.Spine_leg ] else [])
      @ (if metrics then [ Audit.Metrics_leg ] else [])
      @ if ledger then [ Audit.Ledger_leg ] else []
    in
    let legs = if legs = [] then None else Some legs in
    let load path =
      Result.map_error (Printf.sprintf "%s: %s" path) (Audit.load path)
    in
    match (load run_a, load run_b) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok a, Ok b -> (
      match Audit.audit ~lanes ~tolerance ?legs a b with
      | Error e ->
        prerr_endline e;
        1
      | Ok t ->
        print_string (Audit.render t);
        if check && not (Audit.clean t) then 1 else 0)
  in
  let run_a_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"RUN_A"
          ~doc:
            "The reference run: a Chrome trace (--trace-out), a JSONL \
             event log (--metrics-out) or a ledger/journal")
  in
  let run_b_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"RUN_B" ~doc:"The run to audit against RUN_A")
  in
  let spine_flag =
    Arg.(
      value & flag
      & info [ "spine" ]
          ~doc:
            "Compare the span spines (error if either side lacks spans)")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Compare the metric registries (error if either side lacks \
             them)")
  in
  let ledger_flag =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Compare the ledger event streams (error if either side is \
             not a ledger)")
  in
  let lanes_arg =
    Arg.(
      value
      & opt lanes_conv Spine.All
      & info [ "lanes" ] ~docv:"PROJECTION"
          ~doc:
            "Spine projection: $(b,all) for uninterrupted-run \
             comparisons (-j1 vs -j4), $(b,coordinator) for \
             resume-vs-uninterrupted comparisons (replayed batches have \
             no worker-lane spans)")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.0
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:
            "Relative metric movement tolerated before the drift leg \
             breaches (0.0 = any movement)")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit non-zero unless the verdict is CLEAN (the CI gate)")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Diff two runs' deterministic residue — span spine, metric \
          drift, ledger stream, resume lineage — into one verdict")
    Term.(
      const action $ run_a_arg $ run_b_arg $ spine_flag $ metrics_flag
      $ ledger_flag $ lanes_arg $ tolerance_arg $ check_flag)

(* trace *)

let trace_spine_cmd =
  let action file lanes out =
    match read_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok content -> (
      match Export.spans_of_string content with
      | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
      | Ok (spans, salvage) ->
        warn_salvaged file salvage;
        let spine = Spine.of_spans ~lanes spans in
        (match out with
        | Some path -> write_file path (Spine.to_string spine ^ "\n")
        | None -> print_string (Spine.render spine));
        0)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A Chrome trace (--trace-out) or JSONL event log \
             (--metrics-out)")
  in
  let lanes_arg =
    Arg.(
      value
      & opt lanes_conv Spine.All
      & info [ "lanes" ] ~docv:"PROJECTION"
          ~doc:"Projection to extract: $(b,all) or $(b,coordinator)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:
            "Write the versioned spine codec (exom.spine v1) to PATH \
             instead of rendering the tree")
  in
  Cmd.v
    (Cmd.info "spine"
       ~doc:
         "Extract the deterministic span spine from a trace export: the \
          wall-clock-free canonical tree exom audit compares")
    Term.(const action $ file_arg $ lanes_arg $ out_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Operate on trace exports (--trace-out / --metrics-out)")
    [ trace_spine_cmd ]

let () =
  let doc = "locating execution omission errors via implicit dependences" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "exom" ~version:"1.0.0" ~doc)
          [ run_cmd; info_cmd; slice_cmd; rslice_cmd; locate_cmd; explain_cmd;
            recover_cmd; dot_cmd; regions_cmd; bench_cmd; regress_cmd;
            stats_cmd; audit_cmd; trace_cmd; corpus_cmd; chaos_cmd ]))
