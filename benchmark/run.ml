(* The exom benchmark.

     run.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     run.exe [--seed N] [--seconds S] [--trace 0|1]     every workload
     run.exe --check BENCHMARK.json                      smoke: one pass each

   One workload runs in one process: set-up (three times with
   [--trace 0], reporting the median), then closed-loop passes for
   [--seconds], then the output checks.  The last line of standard
   output is one JSON object: correct / attempted / failed / metrics.
   [--trace 0] reports the end-to-end metrics, measured untraced;
   [--trace 1] alternates untraced and traced passes and reports the
   per-layer metrics from the traced ones.  Without [--workload] every
   workload runs in its own child process, one after another. *)

open Exom_benchmark
module Metrics = Exom_obs.Metrics
module Obs = Exom_obs.Obs
module Json = Exom_obs.Json
module Pool = Exom_sched.Pool
module Span = Exom_obs.Span
module Store = Exom_sched.Store

let end_to_end =
  [ ("setup_s", "s"); ("locate_p50_ms", "ms"); ("locate_p90_ms", "ms");
    ("locates_per_s", "1/s"); ("located_ratio", "fraction"); ("ok_ratio", "fraction");
    ("interp_runs_per_locate", "count"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("lang.parse_s", "s"); ("lang.programs", "count");
    ("oracle.expected_s", "s"); ("oracle.create_s", "s");
    ("store.open_s", "s");
    ("session.failing_run_s", "s"); ("session.profile_s", "s");
    ("session.regions_s", "s"); ("session.create_self_s", "s");
    ("demand.search_s", "s"); ("demand.iterations", "count");
    ("demand.expanded_edges", "count"); ("demand.user_prunings", "count");
    ("verify.batch_wall_s", "s"); ("verify.batches", "count"); ("verify.queries", "count");
    ("verify.switched_runs", "count"); ("verify.dedup_ratio", "ratio");
    ("verify.parallelism", "ratio");
    ("interp.run_s", "s"); ("interp.runs", "count"); ("interp.steps", "count");
    ("interp.trace_records", "count");
    ("align.queries", "count"); ("align.match_ratio", "ratio");
    ("store.hits", "count"); ("store.disk_hits", "count"); ("store.misses", "count");
    ("store.writes", "count"); ("store.hit_ratio", "ratio");
    ("ledger.bytes", "bytes"); ("recover.replayed_batches", "count");
    ("io.write_syscalls", "count"); ("io.write_bytes", "bytes");
    ("disk.files", "count"); ("disk.bytes", "bytes");
    ("trace.wall_s", "s"); ("trace.unattributed_ratio", "ratio");
    ("trace.overhead_ratio", "ratio") ]
  @ List.map (fun n -> (n, "us")) Probes.names

(* {2 Metrics of one pass} *)

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let counter name (r : Request.t) = float_of_int (Metrics.counter_value (Obs.metrics r.Request.obs) name)

let layer_metrics rs ~io ~disk =
  let es = List.concat_map (fun r -> Rollup.entries (Obs.spans r.Request.obs)) rs in
  let s us = us *. 1e-6 in
  let c name = fsum (counter name) rs in
  let spans name pred =
    float_of_int
      (List.length
         (List.filter (fun e -> e.Rollup.span.Span.name = name && pred e.Rollup.span.Span.tid) es))
  in
  let stores = List.filter_map (fun r -> Option.map (fun rep -> rep.Exom_core.Demand.store) r.Request.report) rs in
  let st f = fsum (fun x -> float_of_int (f x)) stores in
  let hits = st (fun x -> x.Store.hits) +. st (fun x -> x.Store.disk_hits) in
  let switched = spans "interp.run" (fun tid -> tid > 0) in
  let queries = c "verify.queries" in
  let batch_wall = Rollup.self_us es [ "verify.batch" ] in
  let wall = Rollup.wall_us es in
  [ ("lang.parse_s", s (Rollup.self_us es [ "lang.parse" ]));
    ("lang.programs", spans "lang.parse" (fun _ -> true));
    ("oracle.expected_s", s (Rollup.self_us es [ "oracle.expected" ]));
    ("oracle.create_s", s (Rollup.self_us es [ "oracle.create" ]));
    ("store.open_s", s (Rollup.self_us es [ "store.open" ]));
    ("session.failing_run_s", s (Rollup.total_us es [ "session.failing_run" ]));
    ("session.profile_s", s (Rollup.self_us es [ "session.profile" ]));
    ("session.regions_s", s (Rollup.self_us es [ "session.regions" ]));
    ("session.create_self_s", s (Rollup.self_us es [ "session.create" ]));
    ("demand.search_s", s (Rollup.self_us es [ "demand.locate"; "demand.iteration" ]));
    ("demand.iterations", c "demand.iterations");
    ("demand.expanded_edges", c "demand.expanded_edges");
    ("demand.user_prunings", c "demand.user_prunings");
    ("verify.batch_wall_s", s batch_wall);
    ("verify.batches", spans "verify.batch" (fun tid -> tid = 0));
    ("verify.queries", queries);
    ("verify.switched_runs", switched);
    ("verify.dedup_ratio", Measure.ratio switched queries);
    ("verify.parallelism", Measure.ratio (Rollup.worker_busy_us es) batch_wall);
    ("interp.run_s", s (Rollup.total_us es [ "interp.run" ]));
    ("interp.runs", c "interp.runs");
    ("interp.steps", c "interp.steps");
    ("interp.trace_records", c "interp.trace_records");
    ("align.queries", c "align.queries");
    ("align.match_ratio", Measure.ratio (c "align.matched") (c "align.queries"));
    ("store.hits", st (fun x -> x.Store.hits));
    ("store.disk_hits", st (fun x -> x.Store.disk_hits));
    ("store.misses", st (fun x -> x.Store.misses));
    ("store.writes", st (fun x -> x.Store.writes));
    ("store.hit_ratio", Measure.ratio hits (hits +. st (fun x -> x.Store.misses)));
    ("ledger.bytes",
     fsum (fun r -> float_of_int (String.length (Option.value ~default:"" r.Request.canonical))) rs);
    ("recover.replayed_batches", fsum (fun r -> float_of_int r.Request.replayed_batches) rs);
    ("io.write_syscalls", float_of_int (fst io));
    ("io.write_bytes", float_of_int (snd io));
    ("disk.files", float_of_int (fst disk));
    ("disk.bytes", float_of_int (snd disk));
    ("trace.wall_s", s wall);
    ("trace.unattributed_ratio", Measure.ratio (Rollup.unattributed_us es) wall) ]

(* {2 One pass} *)

(* What a pass leaves for the report; the requests' sessions and spans
   are dropped with the pass, so memory does not grow with run time. *)
type pass = {
  traced : bool;
  latencies : float array;  (* seconds, per request *)
  wall : float;  (* summed request time *)
  located : int;
  failed : int;
  interp_runs : float;
  layers : (string * float) list;  (* traced passes only *)
  errors : string list;
}

let run_pass (env : Workload.env) ~order ~traced =
  let n = Array.length env.Workload.requests in
  let results = Array.make n None and latencies = Array.make n 0.0 in
  let raised = ref [] in
  let c0, b0 = Measure.io_writes () in
  Array.iter
    (fun i ->
      let obs = Obs.create ~trace:traced () in
      let t0 = Measure.now () in
      (match env.Workload.requests.(i) obs with
      | r -> results.(i) <- Some r
      | exception e -> raised := Printf.sprintf "request %d raised %s" i (Printexc.to_string e) :: !raised);
      latencies.(i) <- Measure.now () -. t0)
    order;
  let c1, b1 = Measure.io_writes () in
  let rs = Array.to_list results |> List.filter_map Fun.id in
  let calls =
    if not traced then []
    else
      List.map Request.calls rs
      |> List.filter (fun c -> c <> env.Workload.calls)
      |> List.map (fun c -> "traced request made the calls " ^ String.concat "," c)
  in
  {
    traced;
    latencies;
    wall = Array.fold_left ( +. ) 0.0 latencies;
    located = List.length (List.filter Request.found rs);
    failed = n - List.length (List.filter (fun r -> not (Request.failed r)) rs);
    interp_runs = fsum (counter "interp.runs") rs;
    layers =
      (if not traced then []
       else
         layer_metrics rs ~io:(c1 - c0, b1 - b0)
           ~disk:(match env.Workload.disk with Some d -> Measure.disk_usage d | None -> (0, 0)));
    errors = List.rev !raised @ env.Workload.check results @ calls;
  }

(* {2 Reported metrics} *)

let end_to_end_metrics ~setup_s passes =
  let total f = fsum f passes in
  let attempted = total (fun p -> float_of_int (Array.length p.latencies)) in
  let lat_ms = List.concat_map (fun p -> Array.to_list (Array.map (fun s -> s *. 1e3) p.latencies)) passes in
  [ ("setup_s", setup_s);
    ("locate_p50_ms", Measure.quantile 0.5 lat_ms);
    ("locate_p90_ms", Measure.quantile 0.9 lat_ms);
    ("locates_per_s",
     Measure.median (List.map (fun p -> float_of_int (Array.length p.latencies) /. p.wall) passes));
    ("located_ratio", total (fun p -> float_of_int p.located) /. attempted);
    ("ok_ratio", 1.0 -. (total (fun p -> float_of_int p.failed) /. attempted));
    ("interp_runs_per_locate", total (fun p -> p.interp_runs) /. attempted);
    ("peak_rss_mb", Measure.peak_rss_mb ()) ]

let per_layer_metrics ~probes passes =
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let per_pass = List.map (fun p -> p.layers) traced in
  let med name = Measure.median (List.map (List.assoc name) per_pass) in
  let wall ps = Measure.median (List.map (fun p -> p.wall) ps) in
  List.map (fun (name, _) -> (name, med name)) (List.hd per_pass)
  @ [ ("trace.overhead_ratio", (wall traced /. wall untraced) -. 1.0) ]
  @ probes

(* {2 Result line} *)

let result_json ~correct ~attempted ~failed ~units metrics =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* {2 One workload, in this process} *)

let run_workload (w : Workload.t) ~seed ~seconds ~trace ~corpus_seed ~passes =
  let work = Filename.concat ".bench" (string_of_int (Unix.getpid ())) in
  Measure.mkdir_p work;
  (* One job: on a 2-vCPU VM, a second domain moved the suite's p90 by
     19% between runs (against 1%), for 9% more throughput. *)
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () ->
      Pool.shutdown pool;
      Measure.rm_rf work;
      try Unix.rmdir ".bench" with Unix.Unix_error _ -> ())
  @@ fun () ->
  let setups =
    List.init (if trace || passes <> None then 1 else 3) (fun _ ->
        (* each set-up starts from a compacted heap, as in a fresh process *)
        Gc.compact ();
        Measure.time (fun () -> w.Workload.setup ~pool ~work ~corpus_seed))
  in
  let env = fst (List.nth setups (List.length setups - 1)) in
  let setup_s = Measure.median (List.map snd setups) in
  Gc.compact ();
  let deadline = Measure.now () +. seconds in
  let passes_run = ref [] and i = ref 0 in
  while
    (!i = 0 || Measure.now () < deadline)
    && match passes with Some n -> !i < n | None -> true
  do
    let order = Measure.shuffle ~seed ~pass:!i (Array.length env.Workload.requests) in
    passes_run := run_pass env ~order ~traced:false :: !passes_run;
    if trace then passes_run := run_pass env ~order ~traced:true :: !passes_run;
    incr i
  done;
  let passes_run = List.rev !passes_run in
  let probes = if trace then Probes.run ~pool ~work else [] in
  let errors = List.concat_map (fun p -> p.errors) passes_run @ env.Workload.final_check () in
  let lat = List.concat_map (fun p -> Array.to_list p.latencies) passes_run in
  let p90 = Measure.quantile 0.9 lat in
  let samples = List.length lat in
  Printf.printf "%s: %d passes, %d locates (%d beyond p90), seed %d, corpus seed %d\n"
    w.Workload.name (List.length passes_run) samples
    (List.length (List.filter (fun l -> l > p90) lat))
    seed corpus_seed;
  List.iter (fun e -> Printf.printf "%s: output check failed: %s\n" w.Workload.name e) errors;
  let metrics, units =
    if trace then (per_layer_metrics ~probes passes_run, per_layer)
    else (end_to_end_metrics ~setup_s passes_run, end_to_end)
  in
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %14.6g %s\n" name v (List.assoc name units))
    metrics;
  let failed = List.fold_left (fun n p -> n + p.failed) 0 passes_run in
  print_endline
    (result_json ~correct:(errors = [] && failed = 0) ~attempted:samples ~failed ~units metrics);
  errors = [] && failed = 0

(* {2 Every workload, one child process each} *)

let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (out, status = Unix.WEXITED 0)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* (name, unit) of every object in a JSON list or object of metrics *)
let named entries =
  List.map
    (fun (name, x) ->
      let field k = Option.bind (Json.member k x) Json.to_str in
      (Option.value ~default:name (field "name"), Option.value ~default:"" (field "unit")))
    entries

let reported json =
  match Json.member "metrics" json with
  | Some (Json.Obj kv) -> named kv
  | _ -> []

let declared path key =
  match Json.parse (Measure.read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
    named
      (List.map (fun x -> ("", x)) (Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)))

(* Runs every workload once per trace mode for one pass, and checks that
   the reported names and units are exactly the declared ones. *)
let check_declaration path ~common =
  let sorted l = List.sort compare l in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if
    sorted (List.map fst (declared path "workloads"))
    <> sorted (List.map (fun w -> w.Workload.name) Workload.all)
  then note "workloads differ from %s" path;
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let out, ok =
            child ([ "--workload"; w.Workload.name; "--trace"; trace; "--passes"; "1" ] @ common)
          in
          if not ok then note "%s --trace %s failed:\n%s" w.Workload.name trace out
          else
            match Json.parse (last_line out) with
            | Error e -> note "%s --trace %s: bad result line: %s" w.Workload.name trace e
            | Ok j ->
              if sorted (reported j) <> sorted (declared path key) then
                note "%s --trace %s: metrics differ from %s's %s" w.Workload.name trace path key)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    Workload.all;
  List.iter prerr_endline (List.rev !problems);
  !problems = []

let run_all ~common ~trace =
  let results =
    List.map
      (fun w ->
        let out, ok =
          child ([ "--workload"; w.Workload.name; "--trace"; (if trace then "1" else "0") ] @ common)
        in
        print_string out;
        (w.Workload.name, ok, last_line out))
      Workload.all
  in
  let ok = List.for_all (fun (_, ok, _) -> ok) results in
  Printf.printf "{\"correct\": %b, \"workloads\": {%s}}\n" ok
    (String.concat ", " (List.map (fun (n, _, line) -> Printf.sprintf "%S: %s" n line) results));
  ok

(* {2 Command line} *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 12.0 and trace = ref 0 in
  let corpus_seed = ref 1 and passes = ref None and check = ref None in
  let spec =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N request order seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run (default 12)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
       " 0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes");
      ("--corpus-seed", Arg.Set_int corpus_seed, "N corpus generation seed (default 1)");
      ("--passes", Arg.Int (fun n -> passes := Some n), "N stop after N passes");
      ("--check", Arg.String (fun s -> check := Some s),
       "FILE run one pass of everything and compare the names with FILE") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "run.exe [options]";
  let common =
    [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds;
      "--corpus-seed"; string_of_int !corpus_seed ]
  in
  let ok =
    match (!check, !workload) with
    | Some path, _ -> check_declaration path ~common
    | None, None -> run_all ~common ~trace:(!trace = 1)
    | None, Some name -> (
      match List.find_opt (fun w -> w.Workload.name = name) Workload.all with
      | None ->
        prerr_endline ("unknown workload " ^ name);
        false
      | Some w ->
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~corpus_seed:!corpus_seed ~passes:!passes)
  in
  exit (if ok then 0 else 1)
