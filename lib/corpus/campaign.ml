module Json = Exom_obs.Json
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module Ledger = Exom_ledger.Ledger
module Store = Exom_sched.Store
module Pool = Exom_sched.Pool
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Vfs = Exom_util.Vfs

(* The campaign's degradation contract for storage faults: absorb the
   error into [corpus.io_failures] (acknowledged so the chaos gate can
   account for it) and keep the campaign moving — a full disk under one
   shard must not abort the fleet.  Raisers (a row journal that cannot
   be appended even after a repair + retry) quarantine just their shard:
   [run_local] catches, acks and continues with the next shard; the
   quarantined shard's triples surface as [missing] ids in {!merge} and
   are re-runnable with [--resume]. *)
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

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> Ok (int_of_float f)
  | None -> Error (Printf.sprintf "missing numeric field %S" name)

let ints_field name j =
  match Option.bind (Json.member name j) Json.to_list with
  | Some l ->
    Ok (List.filter_map (fun v -> Option.map int_of_float (Json.to_float v)) l)
  | None -> Error (Printf.sprintf "missing array field %S" name)

let ( let* ) = Result.bind

let triple_of_json j =
  let* t_id = str_field "id" j in
  let* t_seed = int_field "seed" j in
  let* t_family = str_field "family" j in
  let* cls = str_field "class" j in
  let* t_class =
    match Seeder.class_of_string cls with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown fault class %S" cls)
  in
  let* t_root_line = int_field "root_line" j in
  let* t_root_sids = ints_field "root_sids" j in
  let* t_stmts = int_field "stmts" j in
  let* t_predicates = int_field "predicates" j in
  let* t_procs = int_field "procs" j in
  let* t_loc = int_field "loc" j in
  let* t_input = ints_field "input" j in
  let* t_correct = str_field "correct" j in
  let* t_faulty = str_field "faulty" j in
  Ok
    {
      t_id; t_seed; t_family; t_class; t_root_line; t_root_sids; t_stmts;
      t_predicates; t_procs; t_loc; t_input; t_correct; t_faulty;
    }

let manifest_of_string s =
  let* j = Json.parse s in
  let* schema = str_field "schema" j in
  let* version = int_field "version" j in
  if schema <> schema_name then
    Error (Printf.sprintf "foreign schema %S" schema)
  else if version <> schema_version then
    Error (Printf.sprintf "unsupported %s version %d" schema_name version)
  else
    let* m_seed = int_field "seed" j in
    let* m_count = int_field "count" j in
    let* m_family = str_field "family" j in
    let* m_attempts = int_field "attempts" j in
    let* triples =
      match Json.member "triples" j with
      | Some (Json.Arr l) ->
        List.fold_left
          (fun acc tj ->
            let* acc = acc in
            let* t = triple_of_json tj in
            Ok (t :: acc))
          (Ok []) l
        |> Result.map List.rev
      | _ -> Error "missing triples array"
    in
    Ok { m_seed; m_count; m_family; m_attempts; m_triples = triples }

(* Generate-time writes (the manifest) have no degradation tier: a
   campaign without a manifest cannot run, so failure raises. *)
let write_file path contents =
  Vfs.get_ok (Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path contents)

let write_manifest path m = write_file path (manifest_to_string m)

let load_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> manifest_of_string s

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

let outcome_of_string s =
  let* j = Json.parse s in
  let* o_id = str_field "id" j in
  let* o_class = str_field "class" j in
  let* o_family = str_field "family" j in
  let* o_status = str_field "status" j in
  let o_counts =
    match Json.member "counts" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (function k, Json.Num v -> Some (k, int_of_float v) | _ -> None)
        kvs
    | _ -> []
  in
  let* o_stmts = int_field "stmts" j in
  let* o_predicates = int_field "predicates" j in
  let* o_loc = int_field "loc" j in
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

let is_header line =
  match Json.parse line with
  | Ok j -> Json.member "schema" j <> None
  | Error _ -> false

(* Tolerant row reader: a crash can tear the journal's last line, so
   parsing stops (rather than fails) at the first bad line. *)
let read_rows path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let rec go acc = function
      | [] -> List.rev acc
      | line :: rest when String.trim line = "" -> go acc rest
      | line :: rest when is_header line -> go acc rest
      | line :: rest -> (
        match outcome_of_string line with
        | Ok row -> go (row :: acc) rest
        | Error _ -> List.rev acc)
    in
    go [] lines

let shard_journal dir k =
  Filename.concat dir (Printf.sprintf "outcomes.shard%d.jsonl" k)

(* {2 Campaign metric registries}

   Each shard reduces its journaled rows to a metrics registry
   ("corpus.<class>.<count>" counters plus triples/located) written as
   [metrics.shard<k>.jsonl]; the merge writes the campaign-level
   [metrics.jsonl].  Counters merge by sum, so the canonical registry
   — computed from the deduped merged rows — equals the absorption of
   the shard registries whenever the partition is disjoint: the merged
   file is byte-deterministic across reruns, [-j] and shard counts,
   exactly like [outcomes.jsonl]. *)

let shard_metrics dir k =
  Filename.concat dir (Printf.sprintf "metrics.shard%d.jsonl" k)

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

let journaled_rows dir =
  let files =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.filter (fun f ->
             String.length f > 14
             && String.sub f 0 14 = "outcomes.shard"
             && Filename.check_suffix f ".jsonl")
      |> List.sort compare
  in
  let seen = Hashtbl.create 64 in
  List.concat_map (fun f -> read_rows (Filename.concat dir f)) files
  |> List.filter (fun r ->
         if Hashtbl.mem seen r.o_id then false
         else begin
           Hashtbl.add seen r.o_id ();
           true
         end)

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
      let report, _ =
        Pipeline.locate ?config ?pool ~journal:lpath
          ?resume:(Pipeline.journal_plan lpath) prepared
          ~root_sids:triple.t_root_sids
      in
      (* the canonical ledger is a convenience next to the journal;
         losing it costs a resume (the journal replays), not the row *)
      (match Ledger.write_result lpath ledger with
      | Ok () -> ()
      | Error e -> note_io e);
      row
        (if report.Demand.found then "located" else "not_located")
        (Pipeline.counts_of_report report))

(* {2 Sharded campaign} *)

(* One row, one [write], one [fsync] — through the checked façade.  A
   failed append is retried once after truncating away any torn tail
   (a short write would otherwise stop the tolerant reader in front of
   every later row); the per-path fault budget means a seeded storm
   lets the retry through.  A second failure raises — [run_local]
   quarantines the shard and moves on. *)
let append_row path row =
  let line = outcome_to_string row ^ "\n" in
  let size () =
    match Unix.stat path with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error _ -> 0
  in
  let before = size () in
  match Vfs.append path line with
  | Ok () -> ()
  | Error e ->
    note_io e;
    (try if size () > before then Unix.truncate path before
     with Unix.Unix_error _ -> ());
    (match Vfs.append path line with
    | Ok () -> ()
    | Error e -> raise (Vfs.Io_error e))

let shard_slice manifest ~shard ~shards =
  List.filteri (fun i _ -> i mod shards = shard) manifest.m_triples

let run_shard ?config ?jobs ~dir ~manifest ~shard ~shards ~skip () =
  ensure_layout dir;
  let triples =
    List.filter (fun t -> not (skip t.t_id)) (shard_slice manifest ~shard ~shards)
  in
  let journal = shard_journal dir shard in
  (* a shard owns only the pool it creates: without [jobs] the triples
     fall back to the process-wide default pool, which later shards and
     locates in this process still use *)
  let pool = Option.map (fun jobs -> Pool.create ~jobs ()) jobs in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      let rows =
        List.map
          (fun t ->
            let row = run_triple ?config ?pool ~dir t in
            append_row journal row;
            row)
          triples
      in
      (* the shard registry covers the whole journal (resumed rows
         included), not just this invocation's slice; it is derived
         data, so a failed write degrades rather than raises *)
      (match
         Export.write_metrics (shard_metrics dir shard)
           (registry_of_rows (read_rows journal))
       with
      | Ok () -> ()
      | Error e -> note_io e);
      rows)

let merge ~dir ~manifest =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun r -> if not (Hashtbl.mem by_id r.o_id) then Hashtbl.add by_id r.o_id r)
    (journaled_rows dir);
  let rows, missing =
    List.fold_left
      (fun (rows, missing) t ->
        match Hashtbl.find_opt by_id t.t_id with
        | Some r -> (r :: rows, missing)
        | None -> (rows, t.t_id :: missing))
      ([], []) manifest.m_triples
  in
  let rows = List.rev rows and missing = List.rev missing in
  let b = Buffer.create 4096 in
  Buffer.add_string b (outcomes_header manifest);
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b (outcome_to_string r);
      Buffer.add_char b '\n')
    rows;
  (* the merged artifacts are derived from the journals: a failed write
     degrades (re-running [merge] rebuilds them), the rows still return *)
  let outcomes = Filename.concat dir "outcomes.jsonl" in
  (match
     Vfs.write_file_atomic ~tmp:(outcomes ^ ".tmp") outcomes
       (Buffer.contents b)
   with
  | Ok () -> ()
  | Error e -> note_io e);
  (match Export.write_metrics (campaign_metrics dir) (registry_of_rows rows) with
  | Ok () -> ()
  | Error e -> note_io e);
  (rows, missing)

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
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if
          f = "journals" || f = "store" || f = "outcomes.jsonl"
          || f = "metrics.jsonl"
          || (String.length f > 14 && String.sub f 0 14 = "outcomes.shard")
          || (String.length f > 13 && String.sub f 0 13 = "metrics.shard")
        then rm p)
      (Sys.readdir dir)

let run_local ?config ?jobs ?(resume = false) ~dir ~manifest ~shards () =
  ensure_layout dir;
  if not resume then reset dir;
  ensure_layout dir;
  let skip =
    if resume then begin
      let done_ids = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.add done_ids r.o_id ()) (journaled_rows dir);
      Hashtbl.mem done_ids
    end
    else fun _ -> false
  in
  for shard = 0 to shards - 1 do
    match run_shard ?config ?jobs ~dir ~manifest ~shard ~shards ~skip () with
    | _ -> ()
    | exception Vfs.Io_error e ->
      (* quarantine just this shard: its un-journaled triples come back
         as [missing] from the merge and a [--resume] picks them up *)
      Vfs.ack e ~by:"corpus.io_failures";
      Printf.eprintf "exom: corpus: shard %d quarantined: %s\n%!" shard
        (Vfs.error_message e)
  done;
  merge ~dir ~manifest

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
