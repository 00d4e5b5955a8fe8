(* Tests for the Exom_corpus subsystem: the program factory's seed
   determinism, the seeder's validated-omission contract, manifest and
   campaign byte-determinism across job and shard counts, crash-safe
   campaign resume, the miner's table (read back by the ranker), and
   the committed example fixtures (collatz/histogram) as (faulty,
   correct, input, root) triples the seeder and locator both accept. *)

module Pretty = Exom_lang.Pretty
module Typecheck = Exom_lang.Typecheck
module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Campaign = Exom_corpus.Campaign
module Mine = Exom_corpus.Mine
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_corpus_test_%d_%d" (Unix.getpid ()) !n)

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

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* {2 Factory} *)

let test_factory_deterministic () =
  List.iter
    (fun seed ->
      let p1, i1 = Factory.generate ~seed () in
      let p2, i2 = Factory.generate ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: same program" seed)
        (Pretty.program_to_string p1)
        (Pretty.program_to_string p2);
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: same input" seed)
        i1 i2)
    [ 0; 1; 7; 42 ];
  let p1, _ = Factory.generate ~seed:1 () in
  let p2, _ = Factory.generate ~seed:2 () in
  Alcotest.(check bool)
    "different seeds differ" false
    (Pretty.program_to_string p1 = Pretty.program_to_string p2)

let test_factory_families () =
  List.iter
    (fun (name, knobs) ->
      let prog, input = Factory.generate ~knobs ~seed:11 () in
      let f = Factory.features prog in
      Alcotest.(check bool)
        (name ^ ": has statements")
        true (f.Factory.f_stmts > 0);
      Alcotest.(check bool)
        (name ^ ": input consumed exactly")
        true
        (List.length input <= knobs.Factory.k_input);
      Alcotest.(check bool)
        (name ^ ": procs respected")
        true
        (f.Factory.f_procs <= knobs.Factory.k_procs + 1))
    Factory.families;
  Alcotest.(check bool)
    "unknown family" true
    (Factory.knobs_of_family "galactic" = None)

(* {2 Seeder} *)

let test_seeder_validates () =
  (* Search factory programs for a seedable fault; the corpus generator
     relies on this yield, so a handful of seeds must suffice. *)
  let rec find seed =
    if seed > 50 then Alcotest.fail "no seedable fault in 50 factory programs"
    else
      let prog, input = Factory.generate ~seed () in
      match Seeder.seed_fault ~seed ~prog ~input () with
      | Some sd -> (prog, sd)
      | None -> find (seed + 1)
  in
  let prog, sd = find 0 in
  Alcotest.(check bool)
    "validated against its own input" true
    (Seeder.validates ~correct:prog ~faulty:sd.Seeder.sd_faulty
       ~input:sd.Seeder.sd_input);
  Alcotest.(check bool) "root line recorded" true (sd.Seeder.sd_root_line > 0);
  Alcotest.(check bool)
    "root sids recorded" true
    (sd.Seeder.sd_root_sids <> []);
  Alcotest.(check bool)
    "sources differ" false
    (sd.Seeder.sd_correct_src = sd.Seeder.sd_faulty_src);
  (* identical programs never validate: no divergence to anchor *)
  Alcotest.(check bool)
    "self is not an omission" false
    (Seeder.validates ~correct:prog ~faulty:prog ~input:sd.Seeder.sd_input)

let test_seeder_rejects_misaligned_anchor () =
  (* cap = 0 suppresses the whole loop, so the faulty output stream is a
     positional shift of the correct one: the first divergent position
     compares different print statements.  Such faults prune the guard's
     entire backward slice (the misaligned "correct" output sanitizes
     it) and are unlocatable — the seeder must reject them even though
     outputs diverge and execution is omitted. *)
  let source cap =
    Printf.sprintf
      "int cap = %d;\n\
       void main() {\n\
      \  int x = input();\n\
      \  int steps = 0;\n\
      \  while (x != 1 && steps < cap) {\n\
      \    print(x);\n\
      \    if (x %% 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }\n\
      \    steps = steps + 1;\n\
      \  }\n\
      \  print(x);\n\
      \  print(steps);\n\
       }\n"
      cap
  in
  let correct = Typecheck.parse_and_check (source 200) in
  let faulty = Typecheck.parse_and_check (source 0) in
  Alcotest.(check bool)
    "positional-shift fault rejected" false
    (Seeder.validates ~correct ~faulty ~input:[ 6 ])

let test_seeder_deterministic () =
  let prog, input = Factory.generate ~seed:3 () in
  match
    ( Seeder.seed_fault ~seed:9 ~prog ~input (),
      Seeder.seed_fault ~seed:9 ~prog ~input () )
  with
  | Some a, Some b ->
    Alcotest.(check string)
      "same faulty source" a.Seeder.sd_faulty_src b.Seeder.sd_faulty_src;
    Alcotest.(check int)
      "same root line" a.Seeder.sd_root_line b.Seeder.sd_root_line
  | None, None -> ()
  | _ -> Alcotest.fail "seed_fault nondeterministic"

(* {2 Manifest} *)

let gen_manifest ?(count = 6) () = Campaign.generate ~seed:5 ~count ()

let test_manifest_deterministic () =
  let m1 = gen_manifest () and m2 = gen_manifest () in
  Alcotest.(check string)
    "byte-identical manifest"
    (Campaign.manifest_to_string m1)
    (Campaign.manifest_to_string m2);
  match Campaign.manifest_of_string (Campaign.manifest_to_string m1) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check string)
      "roundtrip"
      (Campaign.manifest_to_string m1)
      (Campaign.manifest_to_string m)

let test_manifest_triples_validate () =
  let m = gen_manifest ~count:4 () in
  List.iter
    (fun t ->
      let correct = Typecheck.parse_and_check t.Campaign.t_correct in
      let faulty = Typecheck.parse_and_check t.Campaign.t_faulty in
      Alcotest.(check bool)
        (t.Campaign.t_id ^ " validates")
        true
        (Seeder.validates ~correct ~faulty ~input:t.Campaign.t_input))
    m.Campaign.m_triples

(* {2 Campaign determinism} *)

let outcomes_file dir = Filename.concat dir "outcomes.jsonl"

let run_campaign ?jobs ?resume ~shards manifest dir =
  let rows, missing = Campaign.run_local ?jobs ?resume ~dir ~manifest ~shards () in
  Alcotest.(check (list string)) "no missing rows" [] missing;
  rows

(* The third run passes no [jobs]: every shard then runs on the
   process-wide default pool, which the first shard must not shut down
   under the second. *)
let test_campaign_deterministic () =
  let manifest = gen_manifest () in
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          with_temp_dir (fun d3 ->
              let r1 = run_campaign ~jobs:1 ~shards:1 manifest d1 in
              let _r2 = run_campaign ~jobs:4 ~shards:2 manifest d2 in
              let _r3 = run_campaign ~shards:2 manifest d3 in
              Alcotest.(check int)
                "all triples ran"
                (List.length manifest.Campaign.m_triples)
                (List.length r1);
              Alcotest.(check string)
                "outcomes byte-identical at -j1/x1 and -j4/x2"
                (read_file (outcomes_file d1))
                (read_file (outcomes_file d2));
              Alcotest.(check string)
                "outcomes byte-identical at -j1/x1 and default pool/x2"
                (read_file (outcomes_file d1))
                (read_file (outcomes_file d3)))))

(* Per-shard metric registries merge to the campaign registry over any
   disjoint partition: counters sum, so absorbing the shard files must
   reproduce the registry computed from the merged rows byte for
   byte — the metric analogue of the outcomes.jsonl determinism. *)
let test_campaign_metric_registries () =
  let manifest = gen_manifest () in
  let registry_of_file path =
    match Export.metrics_of_jsonl (read_file path) with
    | Ok (reg, None) -> reg
    | Ok (_, Some _) -> Alcotest.failf "%s: unexpected salvage" path
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let tree reg = Metrics.render ~timings:false reg in
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          let rows = run_campaign ~jobs:1 ~shards:1 manifest d1 in
          ignore (run_campaign ~jobs:4 ~shards:2 manifest d2);
          let canonical = tree (Campaign.registry_of_rows rows) in
          Alcotest.(check string)
            "campaign registry derives from the merged rows" canonical
            (tree (registry_of_file (Campaign.campaign_metrics d1)));
          Alcotest.(check string)
            "campaign registry partition-invariant" canonical
            (tree (registry_of_file (Campaign.campaign_metrics d2)));
          let absorbed = Metrics.create () in
          List.iter
            (fun k ->
              Metrics.absorb ~into:absorbed
                (registry_of_file (Campaign.shard_metrics d2 k)))
            [ 0; 1 ];
          Alcotest.(check string)
            "absorbing the shard registries reproduces the campaign \
             registry"
            canonical (tree absorbed)));
  (* the rollup renders a per-class table from the same counters *)
  with_temp_dir (fun d ->
      let rows = run_campaign ~jobs:2 ~shards:1 manifest d in
      let out = Campaign.render_rollup rows in
      let contains needle =
        let nh = String.length out and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub out i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Exom_corpus.Seeder.class_to_string t.Campaign.t_class
            ^ " in the rollup")
            true
            (contains
               (Exom_corpus.Seeder.class_to_string t.Campaign.t_class)))
        manifest.Campaign.m_triples;
      Alcotest.(check bool) "verification histogram rendered" true
        (contains "verifications per triple (histogram)"))

let test_campaign_resume () =
  let manifest = gen_manifest () in
  with_temp_dir (fun full ->
      with_temp_dir (fun killed ->
          ignore (run_campaign ~jobs:2 ~shards:2 manifest full);
          let reference = read_file (outcomes_file full) in
          (* Simulate a campaign killed after one shard finished: only
             shard 0's rows exist; shard 1 never ran.  (Killing between
             triples is the clean crash point: each row is fsynced whole,
             and a triple killed mid-localization re-runs from its own
             journal — see the resume caveat in campaign.mli.) *)
          Campaign.ensure_layout killed;
          let skip _ = false in
          ignore
            (Campaign.run_shard ~jobs:2 ~dir:killed ~manifest ~shard:0
               ~shards:2 ~skip ());
          Alcotest.(check bool)
            "partial campaign is incomplete" true
            (List.length (Campaign.journaled_rows killed)
            < List.length manifest.Campaign.m_triples);
          let rows =
            run_campaign ~jobs:2 ~resume:true ~shards:2 manifest killed
          in
          Alcotest.(check int)
            "resume completes the campaign"
            (List.length manifest.Campaign.m_triples)
            (List.length rows);
          Alcotest.(check string)
            "resumed outcomes byte-identical to uninterrupted run" reference
            (read_file (outcomes_file killed));
          (* A second resume re-runs nothing and changes nothing. *)
          let again =
            run_campaign ~jobs:2 ~resume:true ~shards:2 manifest killed
          in
          Alcotest.(check int)
            "idempotent"
            (List.length rows)
            (List.length again);
          Alcotest.(check string)
            "still byte-identical" reference
            (read_file (outcomes_file killed))))

let test_campaign_located_rate () =
  let manifest = gen_manifest ~count:8 () in
  with_temp_dir (fun dir ->
      let rows = run_campaign ~jobs:2 ~shards:2 manifest dir in
      let s = Campaign.summarize rows in
      let rate =
        float_of_int s.Campaign.s_located /. float_of_int s.Campaign.s_total
      in
      Alcotest.(check bool)
        (Printf.sprintf "located rate %.2f >= 0.8" rate)
        true (rate >= 0.8))

(* {2 Miner} *)

let test_mine_roundtrip () =
  let manifest = gen_manifest () in
  with_temp_dir (fun dir ->
      let rows = run_campaign ~jobs:2 ~shards:1 manifest dir in
      let t1 = Mine.mine rows in
      let s1 = Mine.table_to_string t1 in
      Alcotest.(check string)
        "deterministic" s1
        (Mine.table_to_string (Mine.mine rows));
      (* the ranker, the table's one production reader, accepts it *)
      (match Exom_rank.Rank.model_of_string s1 with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      Alcotest.(check int)
        "totals cover every row"
        (List.length rows)
        (t1.Mine.mi_located + t1.Mine.mi_not_located + t1.Mine.mi_failed);
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "render mentions located" true
        (contains (Mine.render t1) "located"))

(* {2 Example fixtures} *)

let examples_dir =
  let rel = Filename.concat "examples" "programs" in
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat ".." rel);
      Filename.concat ".." rel;
      rel;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> rel

(* (name, input, root line in the faulty file) — the Try: headers *)
let fixtures =
  [
    ("collatz", [ 6 ], 18);
    ("histogram", [ 6; 9; 7; 5; 1; 3; 3 ], 14);
    ("sensor", [ 6; 10; 60; 30; 80; 20; 55 ], 10);
  ]

let test_example_fixtures () =
  List.iter
    (fun (name, input, root_line) ->
      let load f =
        Typecheck.parse_and_check
          (read_file (Filename.concat examples_dir (f ^ ".mc")))
      in
      let faulty = load name and correct = load (name ^ "_fixed") in
      Alcotest.(check bool)
        (name ^ ": validated omission fault")
        true
        (Seeder.validates ~correct ~faulty ~input);
      (* run the full locator over the fixture via the campaign runner *)
      let root_sids = ref [] in
      Exom_lang.Ast.iter_program
        (fun st ->
          if Exom_lang.Loc.line st.Exom_lang.Ast.sloc = root_line then
            root_sids := st.Exom_lang.Ast.sid :: !root_sids)
        faulty;
      Alcotest.(check bool)
        (name ^ ": root line exists")
        true (!root_sids <> []);
      let triple =
        {
          Campaign.t_id = "t00000";
          t_seed = 0;
          t_family = "example";
          t_class = Seeder.Guard_strengthen;
          t_root_line = root_line;
          t_root_sids = List.rev !root_sids;
          t_stmts = 0;
          t_predicates = 0;
          t_procs = 0;
          t_loc = 0;
          t_input = input;
          t_correct = Pretty.program_to_string correct;
          t_faulty = Pretty.program_to_string faulty;
        }
      in
      (* line numbers shift under pretty-printing, so recompute the
         root sids against the printed faulty source the triple carries *)
      let printed = Typecheck.parse_and_check triple.Campaign.t_faulty in
      let printed_line =
        let l = ref 0 in
        Exom_lang.Ast.iter_program
          (fun st ->
            if
              List.mem st.Exom_lang.Ast.sid triple.Campaign.t_root_sids
              && !l = 0
            then l := Exom_lang.Loc.line st.Exom_lang.Ast.sloc)
          printed;
        !l
      in
      let sids = ref [] in
      Exom_lang.Ast.iter_program
        (fun st ->
          if Exom_lang.Loc.line st.Exom_lang.Ast.sloc = printed_line then
            sids := st.Exom_lang.Ast.sid :: !sids)
        printed;
      let triple =
        {
          triple with
          Campaign.t_root_line = printed_line;
          t_root_sids = List.rev !sids;
        }
      in
      with_temp_dir (fun dir ->
          Campaign.ensure_layout dir;
          let row = Campaign.run_triple ~dir triple in
          Alcotest.(check string)
            (name ^ ": located")
            "located" row.Campaign.o_status))
    fixtures

let () =
  Alcotest.run "corpus"
    [
      ( "factory",
        [
          Alcotest.test_case "seed-deterministic" `Quick
            test_factory_deterministic;
          Alcotest.test_case "families" `Quick test_factory_families;
        ] );
      ( "seeder",
        [
          Alcotest.test_case "validated omission" `Quick test_seeder_validates;
          Alcotest.test_case "rejects misaligned anchor" `Quick
            test_seeder_rejects_misaligned_anchor;
          Alcotest.test_case "deterministic" `Quick test_seeder_deterministic;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "byte-deterministic" `Quick
            test_manifest_deterministic;
          Alcotest.test_case "triples validate" `Quick
            test_manifest_triples_validate;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "rows byte-identical across jobs+shards" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "metric registries partition-invariant" `Slow
            test_campaign_metric_registries;
          Alcotest.test_case "kill + resume byte-identical" `Slow
            test_campaign_resume;
          Alcotest.test_case "located rate" `Slow test_campaign_located_rate;
        ] );
      ( "mine",
        [ Alcotest.test_case "roundtrip" `Slow test_mine_roundtrip ] );
      ( "examples",
        [ Alcotest.test_case "fixtures locate" `Slow test_example_fixtures ] );
    ]
