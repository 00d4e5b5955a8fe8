(* Tests for the Exom_corpus subsystem: the program factory's seed
   determinism, the seeder's validated-omission contract, manifest and
   campaign byte-determinism across job counts, crash-safe campaign
   resume from the ledger journals alone, the strict outcomes reader,
   the miner's tables, and the committed example fixtures
   (collatz/histogram) as (faulty, correct, input, root) triples the
   seeder and locator both accept. *)

module Pretty = Exom_lang.Pretty
module Typecheck = Exom_lang.Typecheck
module Factory = Exom_corpus.Factory
module Seeder = Exom_corpus.Seeder
module Campaign = Exom_corpus.Campaign
module Mine = Exom_corpus.Mine
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Json = Exom_obs.Json

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

(* Generating a manifest costs seconds (every candidate fault is
   validated by running both programs), so the campaign cases share
   one per count; the determinism case below generates its own two. *)
let gen_manifest =
  let memo = Hashtbl.create 4 in
  fun ?(count = 6) () ->
    match Hashtbl.find_opt memo count with
    | Some m -> m
    | None ->
      let m = Campaign.generate ~seed:5 ~count () in
      Hashtbl.add memo count m;
      m

let test_manifest_deterministic () =
  let m1 = Campaign.generate ~seed:5 ~count:6 ()
  and m2 = Campaign.generate ~seed:5 ~count:6 () in
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [j] with member [key] replaced by [v]. *)
let set key v = function
  | Json.Obj kvs ->
    Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) kvs)
  | j -> j

(* Corrupt integers are refused, never truncated or dropped: a dropped
   root sid would run the triple against the wrong ground truth. *)
let test_manifest_corrupt_rejected () =
  let triple =
    {
      Campaign.t_id = "t00000"; t_seed = 0; t_family = "small";
      t_class = Seeder.Guard_strengthen; t_root_line = 3; t_root_sids = [ 4 ];
      t_stmts = 5; t_predicates = 1; t_procs = 1; t_loc = 6;
      t_input = [ 1; 2 ]; t_correct = "c"; t_faulty = "f";
    }
  in
  let good =
    Campaign.manifest_to_string
      { Campaign.m_seed = 5; m_count = 1; m_family = "mixed"; m_attempts = 1;
        m_triples = [ triple ] }
  in
  (match Campaign.manifest_of_string good with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let doc = Result.get_ok (Json.parse good) in
  let in_triple key v =
    match Json.member "triples" doc with
    | Some (Json.Arr [ t ]) -> set "triples" (Json.Arr [ set key v t ]) doc
    | _ -> Alcotest.fail "one triple expected"
  in
  List.iter
    (fun (what, field, j) ->
      match Campaign.manifest_of_string (Json.to_string j) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
        Alcotest.(check bool) (what ^ " names " ^ field ^ ": " ^ e) true
          (contains e field))
    [
      ( "a string root sid", "root_sids",
        in_triple "root_sids" (Json.Arr [ Json.Str "bogus" ]) );
      ( "a string input element", "input",
        in_triple "input" (Json.Arr [ Json.Num 1.0; Json.Str "x" ]) );
      ("a fractional version", "version", set "version" (Json.Num 1.9) doc);
    ]

(* A bad field names its triple's position and id: a manifest may hold
   hundreds of triples. *)
let test_manifest_error_names_triple () =
  let triple i =
    {
      Campaign.t_id = Printf.sprintf "t%05d" i; t_seed = i;
      t_family = "small"; t_class = Seeder.Guard_strengthen; t_root_line = 3;
      t_root_sids = [ 4 ]; t_stmts = 5; t_predicates = 1; t_procs = 1;
      t_loc = 6; t_input = [ 1; 2 ]; t_correct = "c"; t_faulty = "f";
    }
  in
  let doc =
    Campaign.manifest_to_string
      { Campaign.m_seed = 5; m_count = 3; m_family = "mixed"; m_attempts = 3;
        m_triples = List.init 3 triple }
    |> Json.parse |> Result.get_ok
  in
  let third key v =
    match Json.member "triples" doc with
    | Some (Json.Arr [ a; b; c ]) ->
      set "triples" (Json.Arr [ a; b; set key v c ]) doc
    | _ -> Alcotest.fail "three triples expected"
  in
  let error j =
    match Campaign.manifest_of_string (Json.to_string j) with
    | Ok _ -> Alcotest.fail "a bad third triple accepted"
    | Error e -> e
  in
  Alcotest.(check string) "position and id"
    {|triple 2 (t00002): missing or ill-typed integer array "root_sids"|}
    (error (third "root_sids" (Json.Arr [ Json.Str "bogus" ])));
  Alcotest.(check string) "position alone when the id is bad"
    {|triple 2: missing or ill-typed string "id"|}
    (error (third "id" (Json.Num 2.0)))

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

(* Run [manifest] as a fresh campaign in its own directory: the rows
   and the bytes of outcomes.jsonl and metrics.jsonl. *)
let run_fresh ?jobs manifest =
  with_temp_dir (fun dir ->
      let rows = Campaign.run ?jobs ~dir ~manifest () in
      ( rows,
        read_file (outcomes_file dir),
        read_file (Campaign.campaign_metrics dir) ))

(* The last two runs pass no [jobs]: both run on the process-wide
   default pool, which the first must not shut down under the second. *)
let test_campaign_deterministic () =
  let manifest = gen_manifest () in
  let rows, reference, _ = run_fresh ~jobs:1 manifest in
  Alcotest.(check int)
    "all triples ran"
    (List.length manifest.Campaign.m_triples)
    (List.length rows);
  List.iter
    (fun (what, jobs) ->
      let _, outcomes, _ = run_fresh ?jobs manifest in
      Alcotest.(check string)
        ("outcomes byte-identical at -j1 and " ^ what)
        reference outcomes)
    [ ("-j4", Some 4); ("the default pool", None);
      ("the default pool again", None) ]

(* The campaign registry is a function of the rows, so metrics.jsonl
   is byte-deterministic across job counts like outcomes.jsonl. *)
let test_campaign_metric_registries () =
  let manifest = gen_manifest () in
  let tree reg = Metrics.render ~timings:false reg in
  let rows, _, m1 = run_fresh ~jobs:1 manifest in
  let _, _, m4 = run_fresh ~jobs:4 manifest in
  (match Export.metrics_of_jsonl m1 with
  | Ok (reg, None) ->
    Alcotest.(check string)
      "campaign registry derives from the rows"
      (tree (Campaign.registry_of_rows rows))
      (tree reg)
  | Ok (_, Some _) -> Alcotest.fail "metrics.jsonl: unexpected salvage"
  | Error e -> Alcotest.failf "metrics.jsonl: %s" e);
  Alcotest.(check string) "metrics.jsonl byte-identical at -j1 and -j4" m1 m4;
  (* the rollup renders a per-class table from the same counters *)
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
        (contains (Exom_corpus.Seeder.class_to_string t.Campaign.t_class)))
    manifest.Campaign.m_triples;
  Alcotest.(check bool) "verification histogram rendered" true
    (contains "verifications per triple (histogram)")

let test_campaign_resume () =
  let manifest = gen_manifest () in
  let _, reference, _ = run_fresh ~jobs:2 manifest in
  with_temp_dir (fun dir ->
      (* Simulate a campaign killed after its third triple: the first
         three ran as their own campaign in this directory, so three
         complete journals exist and the rest never started.  (A triple
         killed mid-localization resumes from its own journal — see the
         resume caveat in campaign.mli.) *)
      let first3 =
        {
          manifest with
          Campaign.m_triples =
            List.filteri (fun i _ -> i < 3) manifest.Campaign.m_triples;
        }
      in
      ignore (Campaign.run ~jobs:2 ~dir ~manifest:first3 ());
      Alcotest.(check int)
        "partial campaign journaled three triples" 3
        (Array.length (Sys.readdir (Filename.concat dir "journals")));
      let rows = Campaign.run ~jobs:2 ~resume:true ~dir ~manifest () in
      Alcotest.(check int)
        "resume completes the campaign"
        (List.length manifest.Campaign.m_triples)
        (List.length rows);
      Alcotest.(check string)
        "resumed outcomes byte-identical to uninterrupted run" reference
        (read_file (outcomes_file dir));
      (* A second resume replays every triple and changes nothing. *)
      let again = Campaign.run ~jobs:2 ~resume:true ~dir ~manifest () in
      Alcotest.(check int) "idempotent" (List.length rows) (List.length again);
      Alcotest.(check string)
        "still byte-identical" reference
        (read_file (outcomes_file dir)))

(* Every journal left by another manifest's campaign belongs to another
   session, so the resume runs each triple cold. *)
let test_campaign_resume_foreign () =
  let manifest = gen_manifest () in
  let _, reference, _ = run_fresh ~jobs:2 manifest in
  with_temp_dir (fun dir ->
      ignore
        (Campaign.run ~jobs:2 ~dir
           ~manifest:(Campaign.generate ~seed:6 ~count:6 ())
           ());
      ignore (Campaign.run ~jobs:2 ~resume:true ~dir ~manifest ());
      Alcotest.(check string)
        "outcomes byte-identical to a fresh run's" reference
        (read_file (outcomes_file dir)))

let test_outcomes_strict () =
  let manifest = gen_manifest () in
  with_temp_dir (fun dir ->
      let rows = Campaign.run ~jobs:2 ~dir ~manifest () in
      let file = outcomes_file dir in
      (match Campaign.read_outcomes file with
      | Ok back ->
        Alcotest.(check (list string))
          "rows round-trip"
          (List.map Campaign.outcome_to_string rows)
          (List.map Campaign.outcome_to_string back)
      | Error e -> Alcotest.fail e);
      let lines = String.split_on_char '\n' (read_file file) in
      let reject what contents ~line =
        let cut = Filename.concat dir "cut.jsonl" in
        Out_channel.with_open_bin cut (fun oc ->
            Out_channel.output_string oc contents);
        match Campaign.read_outcomes cut with
        | Ok rows ->
          Alcotest.failf "%s read as %d rows" what (List.length rows)
        | Error e ->
          let needle = Printf.sprintf "%s: line %d:" cut line in
          Alcotest.(check string)
            (what ^ " names the line") needle
            (String.sub e 0 (min (String.length e) (String.length needle)))
      in
      reject "a torn fourth line" ~line:4
        (String.concat "\n" (List.filteri (fun i _ -> i < 3) lines)
        ^ "\n{\"id\":\"t00002\",\"class\":");
      reject "a missing header" ~line:1
        (String.concat "\n" (List.tl lines));
      reject "a non-integer count" ~line:2
        (String.concat "\n"
           (List.mapi
              (fun i l ->
                if i <> 1 then l
                else
                  Json.to_string
                    (set "counts"
                       (Json.Obj [ ("iterations", Json.Num 2.5) ])
                       (Result.get_ok (Json.parse l))))
              lines)))

(* A resume of a complete campaign replays every triple from its
   journal and replaces no file: a hard link taken before the resume
   still shares each journal's inode after it, and every artifact
   keeps its bytes. *)
let test_campaign_resume_rewrites_nothing () =
  let manifest = gen_manifest () in
  with_temp_dir (fun dir ->
      ignore (Campaign.run ~jobs:2 ~dir ~manifest ());
      let journals = Filename.concat dir "journals" in
      let pins = Filename.concat dir "pins" in
      Unix.mkdir pins 0o755;
      let names = Array.to_list (Sys.readdir journals) in
      Alcotest.(check bool) "the campaign journaled its triples" true
        (names <> []);
      let artifacts () =
        List.map (fun f -> read_file (Filename.concat journals f)) names
        @ [ read_file (outcomes_file dir);
            read_file (Campaign.campaign_metrics dir) ]
      in
      let before = artifacts () in
      List.iter
        (fun f ->
          Unix.link (Filename.concat journals f) (Filename.concat pins f))
        names;
      ignore (Campaign.run ~jobs:2 ~resume:true ~dir ~manifest ());
      List.iter
        (fun f ->
          Alcotest.(check int) (f ^ " still shares its pinned inode") 2
            (Unix.stat (Filename.concat journals f)).Unix.st_nlink)
        names;
      Alcotest.(check (list string))
        "journals, outcomes.jsonl and metrics.jsonl byte-identical" before
        (artifacts ()))

let test_campaign_located_rate () =
  let manifest = gen_manifest ~count:8 () in
  with_temp_dir (fun dir ->
      let rows = Campaign.run ~jobs:2 ~dir ~manifest () in
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
      let rows = Campaign.run ~jobs:2 ~dir ~manifest () in
      let t1 = Mine.mine rows in
      Alcotest.(check string)
        "deterministic" (Mine.render t1)
        (Mine.render (Mine.mine rows));
      Alcotest.(check int)
        "totals cover every row"
        (List.length rows)
        (t1.Mine.mi_located + t1.Mine.mi_not_located + t1.Mine.mi_failed);
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
          Alcotest.test_case "a bad field names its triple" `Quick
            test_manifest_error_names_triple;
          Alcotest.test_case "corrupt manifest rejected" `Quick
            test_manifest_corrupt_rejected;
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
          Alcotest.test_case "resume over another manifest" `Slow
            test_campaign_resume_foreign;
          Alcotest.test_case "outcomes reader is strict" `Slow
            test_outcomes_strict;
          Alcotest.test_case "resume of a complete campaign rewrites nothing"
            `Slow test_campaign_resume_rewrites_nothing;
        ] );
      ( "mine",
        [ Alcotest.test_case "roundtrip" `Slow test_mine_roundtrip ] );
      ( "examples",
        [ Alcotest.test_case "fixtures locate" `Slow test_example_fixtures ] );
    ]
