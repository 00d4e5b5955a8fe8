module Json = Exom_obs.Json
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module Recover = Exom_core.Recover
module Ledger = Exom_ledger.Ledger
module Store = Exom_sched.Store
module Pool = Exom_sched.Pool
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Vfs = Exom_util.Vfs
module Jsonl = Exom_obs.Jsonl

(* The campaign's degradation contract for storage faults: absorb the
   error into [corpus.io_failures] (acknowledged so the chaos gate can
   account for it) and keep the campaign moving — a full disk under one
   triple must not abort the rest.  Every file the campaign writes is
   either a triple's ledger journal (which absorbs its own failures) or
   derived from those journals, so a [--resume] rebuilds what was lost. *)
let note_io e =
  Vfs.ack e ~by:"corpus.io_failures";
  Printf.eprintf "exom: corpus: %s\n%!" (Vfs.error_message e)

let schema_name = "exom.corpus"
let schema_version = 1

type triple = {
  t_id : string;
  t_seed : int;
  t_family : string;
  t_class : Seeder.fault_class;
  t_root_line : int;
  t_root_sids : int list;
  t_stmts : int;
  t_predicates : int;
  t_procs : int;
  t_loc : int;
  t_input : int list;
  t_correct : string;
  t_faulty : string;
}

type manifest = {
  m_seed : int;
  m_count : int;
  m_family : string;
  m_attempts : int;
  m_triples : triple list;
}

(* {2 Generation} *)

let generate ?(family = "mixed") ?classes ~seed ~count () =
  let family_names = List.map fst Factory.families in
  if family <> "mixed" && not (List.mem family family_names) then
    failwith (Printf.sprintf "unknown program family %S" family);
  let knobs_at attempt =
    let name =
      if family = "mixed" then
        List.nth family_names (attempt mod List.length family_names)
      else family
    in
    (name, Option.get (Factory.knobs_of_family name))
  in
  let cap = (100 * count) + 1000 in
  let triples = ref [] and kept = ref 0 and attempts = ref 0 in
  while !kept < count do
    if !attempts >= cap then
      failwith
        (Printf.sprintf
           "corpus generation stalled: %d/%d triples after %d attempts (is \
            the fault-class filter satisfiable?)"
           !kept count !attempts);
    let fam, knobs = knobs_at !attempts in
    (* one seed per attempt, derived injectively from (seed, attempt) *)
    let pseed = (seed * 1_000_003) + !attempts in
    incr attempts;
    let prog, input = Factory.generate ~knobs ~seed:pseed () in
    match Seeder.seed_fault ?classes ~seed:pseed ~prog ~input () with
    | None -> ()
    | Some sd ->
      let f = Factory.features sd.Seeder.sd_faulty in
      triples :=
        {
          t_id = Printf.sprintf "t%05d" !kept;
          t_seed = pseed;
          t_family = fam;
          t_class = sd.Seeder.sd_class;
          t_root_line = sd.Seeder.sd_root_line;
          t_root_sids = sd.Seeder.sd_root_sids;
          t_stmts = f.Factory.f_stmts;
          t_predicates = f.Factory.f_predicates;
          t_procs = f.Factory.f_procs;
          t_loc = f.Factory.f_loc;
          t_input = sd.Seeder.sd_input;
          t_correct = sd.Seeder.sd_correct_src;
          t_faulty = sd.Seeder.sd_faulty_src;
        }
        :: !triples;
      incr kept
  done;
  {
    m_seed = seed;
    m_count = count;
    m_family = family;
    m_attempts = !attempts;
    m_triples = List.rev !triples;
  }

(* {2 Manifest codec} *)

let num n = Json.Num (float_of_int n)
let nums xs = Json.Arr (List.map num xs)

let triple_to_json t =
  Json.Obj
    [
      ("id", Json.Str t.t_id);
      ("seed", num t.t_seed);
      ("family", Json.Str t.t_family);
      ("class", Json.Str (Seeder.class_to_string t.t_class));
      ("root_line", num t.t_root_line);
      ("root_sids", nums t.t_root_sids);
      ("stmts", num t.t_stmts);
      ("predicates", num t.t_predicates);
      ("procs", num t.t_procs);
      ("loc", num t.t_loc);
      ("input", nums t.t_input);
      ("correct", Json.Str t.t_correct);
      ("faulty", Json.Str t.t_faulty);
    ]

let manifest_to_string m =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema_name);
         ("version", num schema_version);
         ("seed", num m.m_seed);
         ("count", num m.m_count);
         ("family", Json.Str m.m_family);
         ("attempts", num m.m_attempts);
         ("triples", Json.Arr (List.map triple_to_json m.m_triples));
       ])
  ^ "\n"

let triple_of_json j =
  let open Jsonl in
  let* t_id = str "id" j in
  let* t_seed = int "seed" j in
  let* t_family = str "family" j in
  let* cls = str "class" j in
  let* t_class =
    match Seeder.class_of_string cls with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown fault class %S" cls)
  in
  let* t_root_line = int "root_line" j in
  let* t_root_sids = ints "root_sids" j in
  let* t_stmts = int "stmts" j in
  let* t_predicates = int "predicates" j in
  let* t_procs = int "procs" j in
  let* t_loc = int "loc" j in
  let* t_input = ints "input" j in
  let* t_correct = str "correct" j in
  let* t_faulty = str "faulty" j in
  Ok
    {
      t_id; t_seed; t_family; t_class; t_root_line; t_root_sids; t_stmts;
      t_predicates; t_procs; t_loc; t_input; t_correct; t_faulty;
    }

let manifest_of_string s =
  let open Jsonl in
  let* j = document ~schema:schema_name ~versions:[ schema_version ] s in
  let* m_seed = int "seed" j in
  let* m_count = int "count" j in
  let* m_family = str "family" j in
  let* m_attempts = int "attempts" j in
  let* m_triples = list "triples" triple_of_json j in
  Ok { m_seed; m_count; m_family; m_attempts; m_triples }

(* Generate-time writes (the manifest) have no degradation tier: a
   campaign without a manifest cannot run, so failure raises. *)
let write_file path contents =
  Vfs.get_ok (Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path contents)

let write_manifest path m = write_file path (manifest_to_string m)

let load_manifest path =
  match Vfs.read_file path with
  | Ok s -> manifest_of_string s
  | Error e -> Error e.Vfs.ve_msg

(* {2 Outcome rows} *)

type outcome = {
  o_id : string;
  o_class : string;
  o_family : string;
  o_status : string;
  o_counts : (string * int) list;
  o_stmts : int;
  o_predicates : int;
  o_loc : int;
}

let located o = o.o_status = "located"

let count o key =
  match List.assoc_opt key o.o_counts with Some v -> v | None -> 0

let outcome_to_string o =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str o.o_id);
         ("class", Json.Str o.o_class);
         ("family", Json.Str o.o_family);
         ("status", Json.Str o.o_status);
         ("counts", Json.Obj (List.map (fun (k, v) -> (k, num v)) o.o_counts));
         ("stmts", num o.o_stmts);
         ("predicates", num o.o_predicates);
         ("loc", num o.o_loc);
       ])

let outcome_of_json j =
  let open Jsonl in
  let* o_id = str "id" j in
  let* o_class = str "class" j in
  let* o_family = str "family" j in
  let* o_status = str "status" j in
  let* o_counts =
    match Json.member "counts" j with
    | Some (Json.Obj kvs as counts) ->
      List.fold_left
        (fun acc (k, _) ->
          let* acc = acc in
          let* n = int k counts in
          Ok ((k, n) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | _ -> Error "missing or ill-typed object \"counts\""
  in
  let* o_stmts = int "stmts" j in
  let* o_predicates = int "predicates" j in
  let* o_loc = int "loc" j in
  Ok { o_id; o_class; o_family; o_status; o_counts; o_stmts; o_predicates; o_loc }

let outcomes_header m =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str (schema_name ^ ".outcomes"));
         ("version", num schema_version);
         ("seed", num m.m_seed);
         ("count", num m.m_count);
         ("family", Json.Str m.m_family);
       ])

(* The file is written whole by one rename, so a line that does not
   parse is corruption to report, never a torn tail to drop. *)
let read_outcomes path =
  let rows = ref [] in
  let on_record j =
    Result.map (fun row -> rows := row :: !rows) (outcome_of_json j)
  in
  match Vfs.read_file path with
  | Error e -> Error e.Vfs.ve_msg
  | Ok contents ->
    Jsonl.records ~schema:(schema_name ^ ".outcomes")
      ~versions:[ schema_version ] ~salvage:false ~on_record contents
    |> Result.map (fun _ -> List.rev !rows)
    |> Result.map_error (Printf.sprintf "%s: %s" path)

(* {2 Campaign metric registry}

   The rows reduce to one registry ("corpus.<class>.<count>" counters
   plus triples/located) written as [metrics.jsonl]: a function of the
   rows alone, so byte-deterministic wherever [outcomes.jsonl] is. *)

let campaign_metrics dir = Filename.concat dir "metrics.jsonl"

let registry_of_rows rows =
  let reg = Metrics.create () in
  List.iter
    (fun r ->
      let name k = Printf.sprintf "corpus.%s.%s" r.o_class k in
      Metrics.incr reg (name "triples");
      if located r then Metrics.incr reg (name "located");
      List.iter (fun (k, v) -> Metrics.add reg (name k) v) r.o_counts)
    rows;
  reg

(* {2 Running triples} *)

let store_dir dir = Filename.concat dir "store"
let journals_dir dir = Filename.concat dir "journals"

let ensure_dir d = Vfs.get_ok (Vfs.ensure_dir d)

let ensure_layout dir =
  ensure_dir dir;
  ensure_dir (store_dir dir);
  ensure_dir (journals_dir dir)

let run_triple ?config ?pool ~dir triple =
  let row status counts =
    {
      o_id = triple.t_id;
      o_class = Seeder.class_to_string triple.t_class;
      o_family = triple.t_family;
      o_status = status;
      o_counts = counts;
      o_stmts = triple.t_stmts;
      o_predicates = triple.t_predicates;
      o_loc = triple.t_loc;
    }
  in
  match
    ( Pipeline.compile ~name:"faulty" triple.t_faulty,
      Pipeline.compile ~name:"correct" triple.t_correct )
  with
  | Error _, _ | _, Error _ -> row "error" []
  | Ok prog, Ok correct -> (
    let store = Store.create ~dir:(store_dir dir) () in
    let ledger = Ledger.create () in
    match
      Pipeline.prepare ~store ~ledger ~prog ~correct ~input:triple.t_input ()
    with
    | Error Pipeline.No_failure -> row "no_failure" []
    | Error (Pipeline.Setup_failed _) -> row "error" []
    | Ok prepared ->
      let lpath = Filename.concat (journals_dir dir) (triple.t_id ^ ".jsonl") in
      let plan = Pipeline.journal_plan lpath in
      (* a complete journal of this session replays whole, with no
         switched run: re-journaling it would only rewrite its bytes *)
      let whole =
        match plan with
        | Some p ->
          p.Recover.complete
          && Recover.matches_session p prepared.Pipeline.session
        | None -> false
      in
      let report, _ =
        Pipeline.locate ?config ?pool
          ?journal:(if whole then None else Some lpath)
          ?resume:plan prepared ~root_sids:triple.t_root_sids
      in
      (* the canonical ledger is a convenience next to the journal;
         losing it costs a resume (the journal replays), not the row.
         A replayed journal that already holds it stays in place. *)
      (if not (whole && Vfs.read_file lpath = Ok (Ledger.to_string ledger))
       then
         match Ledger.write_result lpath ledger with
         | Ok () -> ()
         | Error e -> note_io e);
      row
        (if report.Demand.found then "located" else "not_located")
        (Pipeline.counts_of_report report))

(* {2 The campaign} *)

(* A fresh (non-resume) run must not see a previous campaign's rows,
   journals or verdicts. *)
let reset dir =
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then rm p)
    [ "journals"; "store"; "outcomes.jsonl"; "metrics.jsonl" ]

let run ?config ?jobs ?(resume = false) ~dir ~manifest () =
  if not resume then reset dir;
  ensure_layout dir;
  (* the campaign owns only the pool it creates: without [jobs] the
     triples run on the process-wide default pool, which later
     campaigns and locates in this process still use *)
  let pool = Option.map (fun jobs -> Pool.create ~jobs ()) jobs in
  let rows =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () -> List.map (run_triple ?config ?pool ~dir) manifest.m_triples)
  in
  let contents =
    String.concat "\n" (outcomes_header manifest :: List.map outcome_to_string rows)
    ^ "\n"
  in
  let outcomes = Filename.concat dir "outcomes.jsonl" in
  (match Vfs.write_file_atomic ~tmp:(outcomes ^ ".tmp") outcomes contents with
  | Ok () -> ()
  | Error e -> note_io e);
  (match Export.write_metrics (campaign_metrics dir) (registry_of_rows rows) with
  | Ok () -> ()
  | Error e -> note_io e);
  rows

(* {2 Summaries} *)

type summary = {
  s_total : int;
  s_located : int;
  s_by_status : (string * int) list;
  s_by_class : (string * (int * int)) list;
}

let summarize rows =
  let bump tbl key f init =
    Hashtbl.replace tbl key
      (f (match Hashtbl.find_opt tbl key with Some v -> v | None -> init))
  in
  let statuses = Hashtbl.create 8 and classes = Hashtbl.create 8 in
  List.iter
    (fun r ->
      bump statuses r.o_status (fun n -> n + 1) 0;
      bump classes r.o_class
        (fun (n, loc) -> (n + 1, if located r then loc + 1 else loc))
        (0, 0))
    rows;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    s_total = List.length rows;
    s_located = List.length (List.filter located rows);
    s_by_status = sorted statuses;
    s_by_class = sorted classes;
  }

let render_summary s =
  let b = Buffer.create 256 in
  let rate n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  Printf.bprintf b "triples: %d, located: %d (%.1f%%)\n" s.s_total s.s_located
    (100.0 *. rate s.s_located s.s_total);
  Printf.bprintf b "by status:\n";
  List.iter
    (fun (st, n) -> Printf.bprintf b "  %-14s %d\n" st n)
    s.s_by_status;
  Printf.bprintf b "by fault class:\n";
  List.iter
    (fun (cls, (n, loc)) ->
      Printf.bprintf b "  %-18s %4d located %4d (%.1f%%)\n" cls n loc
        (100.0 *. rate loc n))
    s.s_by_class;
  Buffer.contents b

(* The campaign-level observability rollup `corpus report` prints next
   to the outcome tables: per fault class, the mean verification work
   per triple and a histogram of verifications per triple.  A class
   whose faults suddenly verify more (or stop hitting the store) shows
   up here without opening a single trace — the fleet-level face of
   the same deterministic counts the spine and the drift gate use. *)
let render_rollup rows =
  if rows = [] then ""
  else begin
    let b = Buffer.create 512 in
    let classes =
      List.sort_uniq compare (List.map (fun r -> r.o_class) rows)
    in
    Printf.bprintf b "verification work by fault class (mean per triple):\n";
    Printf.bprintf b "  %-18s %7s %7s %8s %8s %11s\n" "class" "triples"
      "iters" "verifs" "queries" "store hits";
    List.iter
      (fun cls ->
        let rs = List.filter (fun r -> r.o_class = cls) rows in
        let n = List.length rs in
        let mean key =
          float_of_int (List.fold_left (fun a r -> a + count r key) 0 rs)
          /. float_of_int (max 1 n)
        in
        Printf.bprintf b "  %-18s %7d %7.1f %8.1f %8.1f %11.1f\n" cls n
          (mean "iterations") (mean "verifications") (mean "verify_queries")
          (mean "store_hits"))
      classes;
    Printf.bprintf b "verifications per triple (histogram):\n";
    let buckets =
      [ ("0", 0, 0); ("1-2", 1, 2); ("3-5", 3, 5); ("6-10", 6, 10);
        ("11+", 11, max_int) ]
    in
    List.iter
      (fun cls ->
        let rs = List.filter (fun r -> r.o_class = cls) rows in
        Printf.bprintf b "  %-18s" cls;
        List.iter
          (fun (label, lo, hi) ->
            let c =
              List.length
                (List.filter
                   (fun r ->
                     let v = count r "verifications" in
                     v >= lo && v <= hi)
                   rs)
            in
            Printf.bprintf b " %s:%-4d" label c)
          buckets;
        Buffer.add_char b '\n')
      classes;
    Buffer.contents b
  end
