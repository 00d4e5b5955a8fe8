(* The evidence-driven verification ranking (Exom_rank): adversarial
   model-file rejection, the static-order tie fallback and early-exit
   policy of the planner, cross-codec compatibility with the corpus
   miner's tables, and the end-to-end safety and determinism contracts
   — ranked localization locates everything the static order locates
   (suite and fixed-seed corpus), and the journaled ranked order is
   byte-identical across -j1/-j4 and warm/cold stores. *)

module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite
module Runner = Exom_bench.Runner
module Demand = Exom_core.Demand
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Obs = Exom_obs.Obs
module Ledger = Exom_ledger.Ledger
module Rank = Exom_rank.Rank
module Campaign = Exom_corpus.Campaign
module Mine = Exom_corpus.Mine

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_rank_test_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* {2 Adversarial model files} *)

let valid_table =
  {|{"schema":"exom.corpus.mine","version":1,"total":10,"located":8,"not_located":2,"failed":0,"by_class":[],"by_family":[],"by_size":[{"key":"stmts<=10","n":5,"located":5,"not_located":0,"failed":0,"mean_iterations":1.0,"mean_verifications":2.0,"mean_verify_queries":2.0,"mean_store_hits":0.0},{"key":"stmts11-20","n":5,"located":1,"not_located":4,"failed":0,"mean_iterations":3.0,"mean_verifications":9.0,"mean_verify_queries":9.0,"mean_store_hits":0.0}],"by_density":[{"key":"density0-10","n":10,"located":8,"not_located":2,"failed":0,"mean_iterations":2.0,"mean_verifications":5.0,"mean_verify_queries":5.0,"mean_store_hits":0.0}]}|}

let expect_error what s =
  match Rank.model_of_string s with
  | Ok _ -> Alcotest.fail (what ^ ": accepted")
  | Error e ->
    Alcotest.(check bool) (what ^ ": diagnostic is non-empty") true (e <> "")

let test_model_adversarial () =
  (* the happy path first, so the rejections below mean something *)
  (match Rank.model_of_string valid_table with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("valid table rejected: " ^ e));
  expect_error "corrupt JSON" "{oops";
  expect_error "empty" "";
  (* a torn tail: the valid document cut mid-object *)
  expect_error "truncated"
    (String.sub valid_table 0 (String.length valid_table / 2));
  (* a well-formed document of someone else's schema *)
  (match
     Rank.model_of_string
       {|{"schema":"exom.bench","version":1,"by_size":[],"by_density":[]}|}
   with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error e ->
    Alcotest.(check bool) "error names the schema" true
      (contains e "exom.bench"));
  (* a future version of the right schema *)
  (match
     Rank.model_of_string
       {|{"schema":"exom.corpus.mine","version":99,"by_size":[],"by_density":[]}|}
   with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error e ->
    Alcotest.(check bool) "error names the version" true (contains e "99"));
  (* inconsistent bucket counts: located > n *)
  expect_error "inconsistent counts"
    {|{"schema":"exom.corpus.mine","version":1,"by_size":[{"key":"stmts<=10","n":2,"located":5}],"by_density":[]}|};
  (* a missing file is an Error, never an exception *)
  match Rank.load_model "/nonexistent/exom/rank/model.json" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let test_model_mine_compat () =
  (* a table the real miner wrote parses, and the bucket keys line up:
     the prior of a small low-density program lands on the mined rates,
     not the base prior *)
  let outcome id status stmts predicates =
    {
      Campaign.o_id = id;
      o_class = "flow";
      o_family = "mixed";
      o_status = status;
      o_counts = [];
      o_stmts = stmts;
      o_predicates = predicates;
      o_loc = stmts;
    }
  in
  let rows =
    [
      outcome "t1" "located" 8 0;
      outcome "t2" "located" 9 0;
      outcome "t3" "not_located" 15 1;
      outcome "t4" "located" 16 1;
    ]
  in
  let doc = Mine.table_to_string (Mine.mine rows) in
  match Rank.model_of_string doc with
  | Error e -> Alcotest.fail ("mined table rejected: " ^ e)
  | Ok model ->
    let cfg = { Rank.default_config with Rank.model = Some model } in
    (* stmts<=10 bucket: 2/2 located; density0-10: 3/4 — prior is the
       clamped mean (2/2 + 3/4) / 2 = 0.875 *)
    let t = Rank.create ~stmts:8 ~predicates:0 cfg in
    Alcotest.(check (float 1e-9)) "prior from mined buckets" 0.875
      (Rank.prior t);
    (* an unmatched bucket falls back to the base prior *)
    let far = Rank.create ~stmts:1000 ~predicates:999 cfg in
    Alcotest.(check (float 1e-9)) "unmatched features use the base prior"
      Rank.default_config.Rank.base_prior (Rank.prior far)

(* {2 Planner: ordering, ties, early exit} *)

let test_zero_evidence_is_static_order () =
  let t = Rank.create Rank.default_config in
  (* deliberately shuffled idxs: with no evidence every score ties at
     the prior and the plan must come back in ascending idx = the
     paper's static order, everything kept *)
  let candidates = [ (9, 3); (2, 5); (7, 3); (4, 8) ] in
  let plan = Rank.plan t candidates in
  Alcotest.(check (list int)) "ascending idx order" [ 2; 4; 7; 9 ]
    (List.map (fun d -> d.Rank.d_idx) plan);
  Alcotest.(check bool) "everything kept" true
    (List.for_all (fun d -> d.Rank.d_kept) plan);
  Alcotest.(check bool) "every score is the prior" true
    (List.for_all
       (fun d -> d.Rank.d_score = Rank.prior t)
       plan)

let test_evidence_orders_and_cuts () =
  let cfg = Rank.default_config in
  let t = Rank.create cfg in
  (* sid 1: strong positive evidence; sid 2: a long refuted tail past
     min_obs; sid 3: cold (one observation) *)
  for _ = 1 to 3 do
    Rank.observe t ~sid:1 ~verdict:`Strong_id
  done;
  for _ = 1 to cfg.Rank.min_obs + 2 do
    Rank.observe t ~sid:2 ~verdict:`Not_id
  done;
  Rank.observe t ~sid:3 ~verdict:`Id;
  Alcotest.(check bool) "positive evidence scores above the prior" true
    (Rank.score t ~sid:1 > Rank.prior t);
  Alcotest.(check bool) "refuted tail scores below the cut" true
    (Rank.score t ~sid:2 < cfg.Rank.cut_threshold);
  let plan =
    Rank.plan t [ (10, 1); (11, 2); (12, 2); (13, 2); (14, 3) ]
  in
  let order = List.map (fun d -> d.Rank.d_idx) plan in
  Alcotest.(check (list int)) "descending score, ties static"
    [ 10; 14; 11; 12; 13 ] order;
  let kept d = List.find (fun x -> x.Rank.d_idx = d) plan in
  Alcotest.(check bool) "first instance of a refuted sid survives" true
    (kept 11).Rank.d_kept;
  Alcotest.(check bool) "its tail is cut" false (kept 12).Rank.d_kept;
  Alcotest.(check bool) "all of it" false (kept 13).Rank.d_kept;
  Alcotest.(check bool) "cold sids are never cut" true (kept 14).Rank.d_kept;
  (* under min_obs nothing is cut, however low the score *)
  let cold = Rank.create cfg in
  for _ = 1 to cfg.Rank.min_obs - 1 do
    Rank.observe cold ~sid:2 ~verdict:`Not_id
  done;
  let plan = Rank.plan cold [ (11, 2); (12, 2) ] in
  Alcotest.(check bool) "below min_obs everything is kept" true
    (List.for_all (fun d -> d.Rank.d_kept) plan)

(* {2 End-to-end: safety and determinism} *)

let run_fault ?config ?store ?ledger ~jobs bench fault =
  let pool = Pool.create ~jobs () in
  let r = Runner.run_fault ?config ?store ?ledger ~pool bench fault in
  Pool.shutdown pool;
  r

let static_config = { Demand.default_config with Demand.ranking = None }

let test_suite_safety () =
  (* every fault the static order locates, the ranked order locates;
     and ranked never does more switched work, nor asks more
     verification queries, than static *)
  List.iter
    (fun (bench, fault) ->
      let report ?config () =
        (run_fault ?config ~jobs:2 bench fault).Runner.report
      in
      let s = report ~config:static_config () and r = report () in
      let name = bench.B.name ^ " " ^ fault.B.fid in
      Alcotest.(check bool)
        (name ^ ": ranked locates whatever static locates")
        true
        ((not s.Demand.found) || r.Demand.found);
      Alcotest.(check bool)
        (name ^ ": ranked verifications never exceed static")
        true
        (r.Demand.verifications <= s.Demand.verifications);
      Alcotest.(check bool)
        (name ^ ": ranked queries never exceed static")
        true
        (r.Demand.verify_queries <= s.Demand.verify_queries))
    Suite.rows

let test_corpus_safety_sweep () =
  (* the fixed-seed 30-triple corpus: no fault located under the static
     order becomes NOT_ID under ranked early exit, and ranked does no
     more summed switched work or iterations than static *)
  let manifest = Campaign.generate ~seed:1 ~count:30 () in
  let campaign config =
    with_temp_dir (fun dir ->
        Campaign.run ?config ~jobs:2 ~dir ~manifest ())
  in
  let static_rows = campaign (Some static_config) in
  let ranked_rows = campaign None in
  let located rows =
    List.filter_map
      (fun r -> if Campaign.located r then Some r.Campaign.o_id else None)
      rows
  in
  let static_ids = located static_rows and ranked_ids = located ranked_rows in
  Alcotest.(check bool) "the static leg locates something" true
    (static_ids <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " located statically is located ranked")
        true
        (List.mem id ranked_ids))
    static_ids;
  List.iter
    (fun key ->
      let sum rows =
        List.fold_left (fun a r -> a + Campaign.count r key) 0 rows
      in
      Alcotest.(check bool)
        (Printf.sprintf "ranked summed %s never exceed static" key)
        true
        (sum ranked_rows <= sum static_rows))
    [ "verifications"; "iterations" ]

let rank_lines ledger =
  String.split_on_char '\n' (Ledger.to_string ledger)
  |> List.filter (fun l -> contains l "\"ev\":\"rank\"")

let test_rank_order_invariant () =
  (* the journaled ranked order is identical across job counts and
     across cold/warm stores: evidence comes from returned verdicts,
     which are the same whether a verdict was recomputed or replayed
     from the store *)
  let bench = Option.get (Suite.find "grepsim") in
  let fault = Option.get (Suite.find_fault bench "V4-F2") in
  let l1 = Ledger.create () in
  ignore (run_fault ~ledger:l1 ~jobs:1 bench fault);
  let l4 = Ledger.create () in
  ignore (run_fault ~ledger:l4 ~jobs:4 bench fault);
  Alcotest.(check bool) "the fixture journals rank events" true
    (rank_lines l1 <> []);
  Alcotest.(check (list string)) "-j1 and -j4 rank events identical"
    (rank_lines l1) (rank_lines l4);
  with_temp_dir (fun dir ->
      let obs = Obs.create () in
      let cold = Ledger.create () in
      ignore
        (run_fault ~store:(Store.create ~obs ~dir ()) ~ledger:cold ~jobs:2
           bench fault);
      let warm = Ledger.create () in
      ignore
        (run_fault ~store:(Store.create ~obs ~dir ()) ~ledger:warm ~jobs:2
           bench fault);
      Alcotest.(check (list string)) "cold and warm rank events identical"
        (rank_lines cold) (rank_lines warm);
      Alcotest.(check (list string)) "store and no-store agree too"
        (rank_lines l1) (rank_lines warm))

let () =
  Alcotest.run "rank"
    [
      ( "model",
        [
          Alcotest.test_case "adversarial files rejected" `Quick
            test_model_adversarial;
          Alcotest.test_case "miner tables parse" `Quick
            test_model_mine_compat;
        ] );
      ( "planner",
        [
          Alcotest.test_case "zero evidence = static order" `Quick
            test_zero_evidence_is_static_order;
          Alcotest.test_case "evidence orders, early exit cuts" `Quick
            test_evidence_orders_and_cuts;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "suite safety: ranked >= static" `Quick
            test_suite_safety;
          Alcotest.test_case "rank order invariant (-j, warm/cold)" `Quick
            test_rank_order_invariant;
          Alcotest.test_case "corpus safety sweep (30 triples)" `Slow
            test_corpus_safety_sweep;
        ] );
    ]
