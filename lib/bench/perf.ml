module Metrics = Exom_obs.Metrics
module Obs = Exom_obs.Obs
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Demand = Exom_core.Demand
module Campaign = Exom_corpus.Campaign

type t = { results : Runner.result list; metrics : Metrics.t }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* A fresh per-process directory under the temp dir; the caller
   removes it. *)
let scratch_dir what =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_bench_%s_%d" what (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* The corpus leg: a fixed-seed generated campaign run start to finish
   (factory -> seeder -> localization).  Its counts are deterministic in
   (seed, count) like the suite rows, so they gate the generated-program
   path the hand-written suite cannot cover. *)
let record_corpus ?config ~jobs ~seed ~count reg =
  let dir = scratch_dir "corpus" in
  let rows =
    Campaign.run ?config ~jobs ~dir ~manifest:(Campaign.generate ~seed ~count ()) ()
  in
  rm_rf dir;
  let ran =
    List.filter
      (fun r ->
        r.Campaign.o_status = "located" || r.Campaign.o_status = "not_located")
      rows
  in
  let sum key = List.fold_left (fun a r -> a + Campaign.count r key) 0 ran in
  List.iter
    (fun (k, v) -> Metrics.add reg ("corpus." ^ k) v)
    [ ("seed", seed);
      ("count", count);
      ("located", List.length (List.filter Campaign.located rows));
      ("total", List.length rows);
      ("failed", List.length rows - List.length ran);
      ("iterations", sum "iterations");
      ("verifications", sum "verifications") ]

let run_suite ?config ?(jobs = Pool.default_jobs ()) ?corpus_count () =
  let pool = Pool.create ~jobs () in
  let reg = Metrics.create () in
  (* each fault gets its own registry, so a row's counts are its own *)
  let results =
    List.map
      (fun (bench, fault) ->
        let obs = Obs.create () in
        let r = Runner.run_fault ?config ~obs ~pool bench fault in
        let rep = r.Runner.report in
        let row =
          Printf.sprintf "suite.%s.%s." bench.Bench_types.name
            fault.Bench_types.fid
        in
        List.iter
          (fun (k, v) ->
            Metrics.add reg (row ^ k) v;
            Metrics.add reg ("suite." ^ k) v)
          [ ("found", Bool.to_int rep.Demand.found);
            ("verifications", rep.Demand.verifications);
            ("queries", rep.Demand.verify_queries);
            ("iterations", rep.Demand.iterations);
            ("edges", rep.Demand.expanded_edges);
            ("prunings", rep.Demand.total_prunings);
            ( "interp_runs",
              Metrics.counter_value (Obs.metrics obs) "interp.runs" ) ];
        r)
      Suite.rows
  in
  (* The warm figures are the cache's health check: a warm pass over
     the store a priming pass filled should answer every verification
     from disk and dispatch no switched run. *)
  let store_dir = scratch_dir "store" in
  let store_pass into =
    List.iter
      (fun (bench, fault) ->
        let obs = Obs.create () in
        let store = Store.create ~obs ~dir:store_dir () in
        let r = Runner.run_fault ?config ~obs ~pool ~store bench fault in
        let st = r.Runner.report.Demand.store in
        let hits = st.Store.hits + st.Store.disk_hits in
        Metrics.add into "warm.hits" hits;
        Metrics.add into "warm.queries" (hits + st.Store.misses);
        Metrics.add into "warm.switched_runs"
          (Metrics.timer_count (Obs.metrics obs) "verify.run"))
      Suite.rows
  in
  store_pass (Metrics.create ());
  store_pass reg;
  rm_rf store_dir;
  Pool.shutdown pool;
  (* fixed seed: the leg tracks locator behavior, not corpus variety *)
  Option.iter
    (fun count -> record_corpus ?config ~jobs ~seed:1 ~count reg)
    corpus_count;
  { results; metrics = reg }

let direction name =
  match name with
  | "corpus.seed" | "corpus.count" -> Metrics.Both
  | _ -> (
    match List.rev (String.split_on_char '.' name) with
    | ("found" | "located" | "hits") :: _ -> Metrics.Down
    | _ -> Metrics.Up)
