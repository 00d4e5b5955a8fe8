(* Tests for the benchmark suite: fault validity, the Table 1-3
   properties the paper's evaluation rests on, end-to-end
   localization of representative faults from each benchmark, and the
   perf snapshot's regress directions. *)

module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Demand = Exom_core.Demand
module Interp = Exom_interp.Interp
module Typecheck = Exom_lang.Typecheck
module Perf = Exom_bench.Perf
module Storm = Exom_bench.Storm
module Metrics = Exom_obs.Metrics

let find_bench name =
  match Suite.find name with
  | Some b -> b
  | None -> Alcotest.failf "no benchmark %s" name

let find_fault bench fid =
  match Suite.find_fault bench fid with
  | Some f -> f
  | None -> Alcotest.failf "no fault %s" fid

(* Infrastructure *)

let test_input_encoding () =
  Alcotest.(check (list int)) "abc" [ 3; 97; 98; 99 ] (B.input_of_string "abc");
  Alcotest.(check (list int)) "empty" [ 0 ] (B.input_of_string "")

let test_int_input_parsing () =
  let ints = Alcotest.(result (list int) string) in
  Alcotest.check ints "commas" (Ok [ 6; 10; 60 ]) (B.ints_of_string "6,10,60");
  Alcotest.check ints "spaces and commas" (Ok [ 6; 10; 60; 30 ])
    (B.ints_of_string " 6, 10  60,,30 ");
  Alcotest.check ints "empty" (Ok []) (B.ints_of_string "");
  Alcotest.check ints "blank" (Ok []) (B.ints_of_string " , ");
  Alcotest.check ints "negative" (Ok [ -5; 3; -50 ]) (B.ints_of_string "-5, 3 -50");
  Alcotest.check ints "bad token" (Error "\"x\" is not an integer")
    (B.ints_of_string "6, x");
  Alcotest.check ints "first bad token" (Error "\"x\" is not an integer")
    (B.ints_of_string "6,,x,y");
  (* the other CLI values: -j, --fault and the fault classes *)
  let ok_jobs = function Ok _ -> true | Error _ -> false in
  Alcotest.(check (list bool)) "job counts" [ true; true; false; false; false ]
    (List.map
       (fun s -> ok_jobs (B.jobs_of_string s))
       [ "0"; "4"; "-1"; "two"; "" ]);
  Alcotest.(check (result (pair string string) string)) "fault reference"
    (Ok ("gzipsim", "V2-F3"))
    (B.fault_ref_of_string "gzipsim/V2-F3");
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Result.is_error (B.fault_ref_of_string s)))
    [ "gzipsim"; "gzipsim/"; "/V2-F3"; "" ];
  Alcotest.(check bool) "unknown fault class" true
    (Exom_corpus.Seeder.class_of_string "bogus" = None)

let test_fault_line_and_source () =
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  Alcotest.(check int) "fault on line 2" 2 (B.fault_line bench fault);
  let faulty = B.faulty_source bench fault in
  Alcotest.(check bool) "replacement applied" true
    (String.length faulty = String.length bench.B.source
    && faulty <> bench.B.source)

let test_root_sids () =
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let prog = Typecheck.parse_and_check (B.faulty_source bench fault) in
  let roots = B.root_sids bench fault prog in
  Alcotest.(check int) "single root" 1 (List.length roots)

let test_unknown_pattern_rejected () =
  let bench = find_bench "gzipsim" in
  let bogus =
    { B.fid = "X"; description = ""; pattern = "no such line";
      replacement = ""; failing_input = [] }
  in
  match B.faulty_source bench bogus with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Benchmark programs behave correctly (the correct versions). *)

let run_correct name input =
  let bench = find_bench name in
  let prog = Typecheck.parse_and_check bench.B.source in
  Interp.output_values (Interp.run ~tracing:false prog ~input)

let test_flexsim_scans () =
  (* "let x = 42;" => keyword(3), ident(1), punct(=), number(2), punct(;) *)
  let out = run_correct "flexsim" (B.input_of_string "let x = 42;") in
  let token_stream =
    (* (kind, len) pairs precede the 9 summary values *)
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    take (List.length out - 9) out
  in
  Alcotest.(check (list int))
    "token stream"
    [ 4; 3; 2; 1; 3; 1; 1; 2; 3; 1 ]
    token_stream

let test_grepsim_counts () =
  (* pattern "ab" over 4 lines, 3 contain ab (case folded) *)
  let bench = find_bench "grepsim" in
  let fault = find_fault bench "V4-F2" in
  let out = run_correct "grepsim" fault.B.failing_input in
  match out with
  | [ lines_seen; match_count; first_match; _check ] ->
    Alcotest.(check int) "lines" 4 lines_seen;
    Alcotest.(check int) "matches" 3 match_count;
    Alcotest.(check int) "first" 1 first_match
  | _ -> Alcotest.fail "unexpected output shape"

let test_gzipsim_header () =
  let out = run_correct "gzipsim" (B.input_of_string "abcabcabcxyz") in
  (match out with
  | m1 :: m2 :: meth :: flags :: _ ->
    Alcotest.(check int) "magic1" 31 m1;
    Alcotest.(check int) "magic2" 139 m2;
    Alcotest.(check int) "method" 8 meth;
    (* level bit (4) + name bit (8) *)
    Alcotest.(check int) "flags" 12 flags
  | _ -> Alcotest.fail "short output");
  (* repetitive input must produce at least one match, and the built-in
     decoder must round-trip: zero mismatches *)
  let nth_back k = List.nth out (List.length out - k) in
  Alcotest.(check bool) "lz77 found matches" true (nth_back 4 >= 1);
  Alcotest.(check int) "round trip clean" 0 (nth_back 1)

let test_gzipsim_roundtrippable () =
  (* every literal/match token must be decodable back to the input *)
  let text = "abcabcabcxyz" in
  let input = B.input_of_string text in
  let bench = find_bench "gzipsim" in
  let prog = Typecheck.parse_and_check bench.B.source in
  let run = Interp.run ~tracing:false prog ~input in
  let out = Array.of_list (Interp.output_values run) in
  (* outputs: 12 header/stream bytes, outcnt, literals, matches, crc; the
     full stream lives in outbuf, of which we see a prefix - so decode
     from a fresh run's full token list instead: re-simulate here *)
  ignore out;
  (* decode by re-running LZ77 in OCaml and comparing statistics *)
  let n = String.length text in
  let window = 16 and min_match = 3 in
  let literals = ref 0 and matches = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let best_len = ref 0 in
    let start = max 0 (!pos - window) in
    for cand = start to !pos - 1 do
      let len = ref 0 in
      while
        !pos + !len < n
        && text.[cand + !len] = text.[!pos + !len]
        && !len < 255
      do
        incr len
      done;
      if !len > !best_len then best_len := !len
    done;
    if !best_len >= min_match then begin
      incr matches;
      pos := !pos + !best_len
    end
    else begin
      incr literals;
      incr pos
    end
  done;
  let out_list = Interp.output_values run in
  (* outputs end with: ..., literals, matches, crc, dpos, mismatches *)
  let got_matches = List.nth out_list (List.length out_list - 4) in
  let got_literals = List.nth out_list (List.length out_list - 5) in
  Alcotest.(check int) "literal count agrees" !literals got_literals;
  Alcotest.(check int) "match count agrees" !matches got_matches

let test_sedsim_substitutes () =
  let out = run_correct "sedsim" (B.input_of_string "banana") in
  (* line number 1, then "bonono", newline, counters *)
  match out with
  | 1 :: rest ->
    let line = List.filteri (fun i _ -> i < 6) rest in
    Alcotest.(check (list int))
      "substituted" [ 98; 111; 110; 111; 110; 111 ] line
  | _ -> Alcotest.fail "expected line number first"

(* The benchmark sources exercise the whole front end: they must
   pretty-print and re-parse to the same statement structure, build
   CFGs for every function, and profile cleanly on their test suites. *)

let test_sources_roundtrip () =
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      let printed = Exom_lang.Pretty.program_to_string prog in
      let reparsed = Typecheck.parse_and_check printed in
      Alcotest.(check int)
        (b.B.name ^ " statement count survives round trip")
        (Exom_lang.Ast.stmt_count prog)
        (Exom_lang.Ast.stmt_count reparsed))
    Suite.all

let test_sources_analyses () =
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      let info = Exom_cfg.Proginfo.build prog in
      List.iter
        (fun fn ->
          let cfg = Exom_cfg.Proginfo.cfg_of info (Some fn.Exom_lang.Ast.fname) in
          Alcotest.(check bool)
            (b.B.name ^ "." ^ fn.Exom_lang.Ast.fname ^ " cfg nonempty")
            true
            (cfg.Exom_cfg.Cfg.nnodes >= 2);
          (* control dependence computes without blowing up *)
          Exom_lang.Ast.iter_stmts
            (fun s -> ignore (Exom_cfg.Proginfo.control_deps info s.Exom_lang.Ast.sid))
            fn.Exom_lang.Ast.fbody)
        prog.Exom_lang.Ast.funcs)
    Suite.all

let test_sources_pass_their_suites () =
  (* every test input runs the correct program to completion *)
  List.iter
    (fun b ->
      let prog = Typecheck.parse_and_check b.B.source in
      List.iter
        (fun input ->
          let r = Interp.run ~tracing:false prog ~input in
          Alcotest.(check bool)
            (b.B.name ^ " test input terminates normally")
            true
            (r.Interp.outcome = Ok ()))
        b.B.test_inputs)
    Suite.all

(* Fault validity: every seeded fault manifests as a wrong value. *)

let test_all_faults_valid () =
  List.iter (fun (b, f) -> Runner.validate_fault b f) Suite.rows

let test_suite_shape () =
  Alcotest.(check int) "four benchmarks" 4 (List.length Suite.all);
  Alcotest.(check bool) "at least 9 faults (paper's row count)" true
    (List.length Suite.rows >= 9)

(* End-to-end localization on one representative fault per benchmark.
   These are the paper's headline claims:
   - the dynamic slice misses the root (execution omission error),
   - the relevant slice catches it but is much bigger dynamically,
   - the demand-driven procedure locates it with few iterations/edges. *)

let check_localization ?(ips_factor = 5) name fid ~max_iterations =
  let bench = find_bench name in
  let fault = find_fault bench fid in
  let r = Runner.run_fault bench fault in
  Alcotest.(check bool) (fid ^ ": DS misses root") false r.Runner.root_in_ds;
  Alcotest.(check bool) (fid ^ ": RS catches root") true r.Runner.root_in_rs;
  Alcotest.(check bool)
    (fid ^ ": RS dynamic >= DS dynamic")
    true
    (r.Runner.rs.Runner.dynamic_size >= r.Runner.ds.Runner.dynamic_size);
  Alcotest.(check bool) (fid ^ ": located") true r.Runner.report.Demand.found;
  Alcotest.(check bool)
    (fid ^ ": few iterations")
    true
    (r.Runner.report.Demand.iterations <= max_iterations);
  Alcotest.(check bool)
    (fid ^ ": IPS is small")
    true
    (r.Runner.ips.Runner.dynamic_size * ips_factor
    <= max (25 * ips_factor) r.Runner.rs.Runner.dynamic_size)

let test_locate_gzip () = check_localization "gzipsim" "V2-F3" ~max_iterations:2
let test_locate_sed () = check_localization "sedsim" "V3-F2" ~max_iterations:2
let test_locate_flex () = check_localization "flexsim" "V5-F6" ~max_iterations:2

let test_locate_grep () =
  (* grep is the paper's hardest case: more iterations and edges *)
  check_localization ~ips_factor:2 "grepsim" "V4-F2" ~max_iterations:35

(* Scale: a trace in the tens of thousands of instances must still be
   handled, and the paper's static-vs-dynamic blowup grows with it. *)
let test_scale_gzip () =
  let bench = find_bench "gzipsim" in
  let base = "the quick brown fox jumps over the lazy dog; " in
  let big = String.concat "" (List.init 6 (fun _ -> base)) in
  let fault =
    { (find_fault bench "V2-F3") with B.failing_input = B.input_of_string big }
  in
  let r = Runner.run_fault bench fault in
  Alcotest.(check bool) "big trace" true (r.Runner.trace_length > 10_000);
  Alcotest.(check bool) "still located" true r.Runner.report.Demand.found;
  Alcotest.(check bool) "few verifications" true
    (r.Runner.report.Demand.verifications <= 10);
  (* RS dynamic blowup grows with trace size (paper: orders of magnitude) *)
  Alcotest.(check bool) "RS dynamic >> RS static" true
    (r.Runner.rs.Runner.dynamic_size > 100 * r.Runner.rs.Runner.static_size)

(* Ablations *)

let test_potential_confidence_sanitizes_gzip () =
  (* §3.2's rejected alternative, on the paper's own example: blind
     potential edges raise the faulty save_orig_name's confidence to 1 *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let s = Exom_bench.Ablation.potential_confidence_sanitizes bench fault in
  Alcotest.(check bool) "verified graph leaves root suspicious" true
    (s.Exom_bench.Ablation.conf_verified < 0.5);
  Alcotest.(check bool) "potential edges sanitize the root" true
    s.Exom_bench.Ablation.sanitized

let test_union_graph_backend () =
  (* the union-dependence-graph condition (iv): never loses the root,
     prunes false pairs — sharply on gzip V2-F3 *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let r = Exom_bench.Ablation.compare_rs_backends bench fault in
  Alcotest.(check bool) "root kept under static (iv)" true
    r.Exom_bench.Ablation.root_in_static;
  Alcotest.(check bool) "root kept under union (iv)" true
    r.Exom_bench.Ablation.root_in_union;
  let _, sd = r.Exom_bench.Ablation.rs_static in
  let _, ud = r.Exom_bench.Ablation.rs_union in
  Alcotest.(check bool) "union RS no larger" true (ud <= sd);
  Alcotest.(check bool) "union RS much smaller here" true (ud * 2 < sd)

let test_verify_modes_agree_on_suite () =
  (* the paper: "we have not encountered such a case in our study" —
     edge and path mode locate the same faults here too *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let c = Exom_bench.Ablation.compare_verify_modes bench fault in
  Alcotest.(check bool) "edge mode finds" true
    c.Exom_bench.Ablation.edge_report.Demand.found;
  Alcotest.(check bool) "path mode finds" true
    c.Exom_bench.Ablation.path_report.Demand.found

let test_critical_search_comparison () =
  (* gzip V2-F3 (the paper's Figure 1): the flags bit and the name bytes
     hang under two instances of the faulty condition, so no single flip
     repairs the output — whole-output critical-predicate search finds
     nothing while the demand-driven technique locates the root *)
  let bench = find_bench "gzipsim" in
  let fault = find_fault bench "V2-F3" in
  let c = Exom_bench.Ablation.compare_with_critical_search bench fault in
  Alcotest.(check int) "no critical predicate exists" 0
    c.Exom_bench.Ablation.critical_found;
  Alcotest.(check bool) "demand-driven still locates" true
    c.Exom_bench.Ablation.demand_found;
  Alcotest.(check bool) "critical search cost is high" true
    (c.Exom_bench.Ablation.critical_executions
    > 10 * c.Exom_bench.Ablation.demand_verifications)

(* Robustness: a seed sweep of injected faults over real benchmark
   localizations.  Whatever the chaos does to the switched
   re-executions — crashes, truncated budgets, corrupted values, raw
   exceptions — the locator must return a report, and its robustness
   accounting must add up. *)
let test_chaos_sweep_never_raises () =
  let cases = [ ("gzipsim", "V2-F3"); ("sedsim", "V3-F2") ] in
  List.iter
    (fun (name, fid) ->
      let bench = find_bench name in
      let fault = find_fault bench fid in
      for seed = 0 to 19 do
        let chaos = Exom_interp.Chaos.of_seed seed in
        let label fmt =
          Printf.ksprintf
            (fun s ->
              Printf.sprintf "%s %s seed %d (%s): %s" name fid seed
                (Exom_interp.Chaos.fault_to_string chaos.Exom_interp.Chaos.fault)
                s)
            fmt
        in
        let r =
          try Runner.run_fault ~chaos bench fault
          with exn -> Alcotest.failf "%s" (label "raised %s" (Printexc.to_string exn))
        in
        let g = r.Runner.robustness in
        let module G = Exom_core.Guard in
        Alcotest.(check int)
          (label "every re-execution accounted")
          r.Runner.report.Demand.verifications
          (g.G.completed + g.G.aborted);
        Alcotest.(check bool)
          (label "counters non-negative")
          true
          (g.G.completed >= 0 && g.G.aborted >= 0 && g.G.breaker_trips >= 0 && g.G.breaker_skips >= 0
          && g.G.captured >= 0);
        Alcotest.(check bool)
          (label "journal covers skips")
          true
          (List.length r.Runner.report.Demand.failures >= g.G.breaker_skips)
      done)
    cases

let test_chaos_free_runs_report_clean () =
  (* without chaos, the benchmark rows must report a clean bill: no
     retries, trips, skips or captures (aborted switched runs are
     legitimate — a switch may genuinely hang) *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let r = Runner.run_fault bench fault in
  let module G = Exom_core.Guard in
  let g = r.Runner.robustness in
  Alcotest.(check int) "no breaker trips" 0 g.G.breaker_trips;
  Alcotest.(check int) "no skips" 0 g.G.breaker_skips;
  Alcotest.(check int) "no captures" 0 g.G.captured;
  Alcotest.(check int) "accounted" r.Runner.report.Demand.verifications
    (g.G.completed + g.G.aborted)

(* The storage storm ([exom chaos --check]) in-process: CLEAN at seed 1,
   and at seed 7 CLEAN twice with byte-identical reports, each storm in
   a fresh directory. *)
let test_storm_gate () =
  let dirs = ref [] in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  at_exit (fun () ->
      List.iter (fun d -> if Sys.file_exists d then rm_rf d) !dirs);
  let storm seed =
    let dir = Filename.temp_dir "exom_storm_test" "" in
    dirs := dir :: !dirs;
    let r = Storm.run ~jobs:2 ~corpus:20 ~seed ~dir () in
    if not r.Storm.r_ok then
      Alcotest.failf "storm seed %d not clean:\n%s" seed (Storm.render r);
    Exom_obs.Json.to_string (Storm.report_to_json r)
  in
  ignore (storm 1);
  Alcotest.(check string) "seed 7 report deterministic" (storm 7) (storm 7)

let test_sed_cascade_two_edges () =
  (* the two-deep omission cascade needs exactly two expansions along
     strong implicit dependence edges (the paper's sed V3-F2 row) *)
  let bench = find_bench "sedsim" in
  let fault = find_fault bench "V3-F2" in
  let r = Runner.run_fault bench fault in
  Alcotest.(check int) "2 iterations" 2 r.Runner.report.Demand.iterations;
  Alcotest.(check int) "2 edges" 2 r.Runner.report.Demand.expanded_edges

(* Perf snapshot *)

(* The committed baseline, read fresh on every call so a doctored copy
   never aliases the base. *)
let baseline () =
  let content =
    In_channel.with_open_bin "../BENCH_exom.jsonl" In_channel.input_all
  in
  match Exom_obs.Export.metrics_of_jsonl content with
  | Ok (reg, None) -> reg
  | Ok (_, Some _) -> Alcotest.fail "the committed baseline is torn"
  | Error e -> Alcotest.fail e

let drift newer =
  Metrics.drift ~direction_of:Perf.direction (baseline ()) newer

(* Each case moves one counter of a fresh copy of the baseline by
   [delta]; that counter must be the only finding, breaching as
   [breach] says. *)
let check_moves cases =
  List.iter
    (fun (what, name, delta, breach) ->
      let doctored = baseline () in
      Alcotest.(check bool) (name ^ " is in the baseline") true
        (Metrics.find doctored name <> None);
      Metrics.add doctored name delta;
      match drift doctored with
      | [ f ] ->
        Alcotest.(check string) (what ^ ": names the counter") name
          f.Metrics.d_name;
        Alcotest.(check bool) what breach f.Metrics.d_breach
      | fs -> Alcotest.failf "%s: %d findings, expected 1" what (List.length fs))
    cases

let test_regress_directions () =
  Alcotest.(check bool) "the baseline holds counters only" true
    (List.for_all
       (fun m -> m.Metrics.kind = Metrics.Counter)
       (Metrics.to_list (baseline ())));
  Alcotest.(check bool) "the baseline does not drift from itself" false
    (Metrics.has_drift (drift (baseline ())));
  check_moves
    [ ("a count that grows breaches", "suite.grepsim.V4-F2.queries", 1, true);
      ("a count that falls is listed", "suite.queries", -1, false);
      ("found 1 -> 0 breaches", "suite.gzipsim.V2-F3.found", -1, true) ]

let test_warm_regression () =
  (* the warm pass answers every query from the store: new switched
     runs breach even from a zero baseline, and so do falling hits *)
  check_moves
    [ ("warm switched runs 0 -> 7 breach", "warm.switched_runs", 7, true);
      ("warm hits falling breach", "warm.hits", -1, true);
      ("warm hits rising is listed", "warm.hits", 1, false) ]

let test_corpus_leg () =
  (* the corpus leg survives the exom.obs codec counter for counter *)
  let path = Filename.temp_file "exom_perf" ".jsonl" in
  let written = baseline () in
  (match Exom_obs.Export.write_metrics path written with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the snapshot could not be written");
  let content = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (match Exom_obs.Export.metrics_of_jsonl content with
  | Ok (read, None) ->
    List.iter
      (fun name ->
        Alcotest.(check int) (name ^ " reads back")
          (Metrics.counter_value written name)
          (Metrics.counter_value read name))
      [ "corpus.seed"; "corpus.count"; "corpus.located"; "corpus.total";
        "corpus.failed"; "corpus.iterations"; "corpus.verifications" ];
    Alcotest.(check bool) "the read-back snapshot does not drift" false
      (Metrics.has_drift (drift read))
  | Ok (_, Some _) -> Alcotest.fail "the written snapshot reads back torn"
  | Error e -> Alcotest.fail e);
  (* another corpus is another baseline: any change to its seed or
     size breaches, as does a located drop on the same corpus *)
  check_moves
    [ ("corpus located -1 breaches", "corpus.located", -1, true);
      ("another corpus seed breaches", "corpus.seed", 1, true);
      ("a smaller corpus breaches", "corpus.count", -10, true) ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "bench"
    [ ( "infrastructure",
        [ tc "input encoding" test_input_encoding;
          tc "integer input parsing" test_int_input_parsing;
          tc "fault line and source" test_fault_line_and_source;
          tc "root sids" test_root_sids;
          tc "unknown pattern" test_unknown_pattern_rejected;
          tc "suite shape" test_suite_shape ] );
      ( "program semantics",
        [ tc "flexsim scans" test_flexsim_scans;
          tc "grepsim counts" test_grepsim_counts;
          tc "gzipsim header" test_gzipsim_header;
          tc "gzipsim statistics" test_gzipsim_roundtrippable;
          tc "sedsim substitutes" test_sedsim_substitutes ] );
      ( "front-end coverage",
        [ tc "sources round-trip" test_sources_roundtrip;
          tc "static analyses" test_sources_analyses;
          tc "test suites pass" test_sources_pass_their_suites ] );
      ("fault validity", [ tc "all faults manifest" test_all_faults_valid ]);
      ( "localization",
        [ slow "gzip V2-F3 (figure 1)" test_locate_gzip;
          slow "sed V3-F2 (cascade)" test_locate_sed;
          slow "flex V5-F6" test_locate_flex;
          slow "grep V4-F2 (hardest)" test_locate_grep;
          slow "sed cascade needs 2 edges" test_sed_cascade_two_edges;
          slow "gzip at scale (35k instances)" test_scale_gzip ] );
      ( "robustness",
        [ slow "20-seed chaos sweep never raises" test_chaos_sweep_never_raises;
          slow "chaos-free runs report clean" test_chaos_free_runs_report_clean;
          slow "storm gate" test_storm_gate ] );
      ( "ablations",
        [ slow "potential-edge confidence sanitizes gzip"
            test_potential_confidence_sanitizes_gzip;
          slow "edge and path modes agree on the suite"
            test_verify_modes_agree_on_suite;
          slow "union-graph condition (iv)" test_union_graph_backend;
          slow "critical-predicate search fails where demand succeeds"
            test_critical_search_comparison ] );
      ( "perf",
        [ tc "regression comparator" test_regress_directions;
          tc "warm-store regression gates" test_warm_regression;
          tc "corpus leg round-trip and gates" test_corpus_leg ] ) ]
