(* The four workloads.  Each [setup] builds everything a timed pass
   needs (corpus, primed stores and journals, reference results) and
   runs one untimed warm-up pass; a pass then sends every request once,
   closed loop, in a seeded order.

   Files go under [work], a directory in the benchmark's working
   directory, so they share the checkout's disk.  In timed requests only
   suite-warm's store and corpus-resume's journals touch that disk, and
   both only read (see {!Request.triple} and [corpus_campaign]). *)

module Campaign = Exom_corpus.Campaign
module Demand = Exom_core.Demand
module Metrics = Exom_obs.Metrics
module Obs = Exom_obs.Obs
module Pool = Exom_sched.Pool
module Slice = Exom_ddg.Slice
module Store = Exom_sched.Store
module Suite = Exom_bench.Suite

type env = {
  requests : (Obs.t -> Request.t) array;
  calls : string list;  (** what {!Request.calls} must read in a traced pass *)
  check : Request.t option array -> string list;
      (** output check of one pass ([None]: the request raised); the
          empty list when every output is right *)
  disk : string option;  (** the directory a pass leaves on disk *)
  final_check : unit -> string list;
}

type t = {
  name : string;
  setup : pool:Pool.t -> work:string -> corpus_seed:int -> env;
}

(* The suite's known totals at the committed search configuration. *)
let suite_switched_runs = 291
let suite_queries = 419

(* The corpus size, and what it locates at corpus seed 1.  Odd, and 0.9
   times it ends in a half: the pooled p50 and p90 then fall mid-way
   through one triple's samples instead of on the edge between two
   triples, where they jumped between runs. *)
let corpus_count = 25
let corpus_seed1_located = 24

let suite_calls =
  [ "lang.parse"; "lang.parse"; "oracle.expected"; "store.open"; "session.create";
    "oracle.create"; "demand.locate" ]

let campaign_calls =
  [ "lang.parse"; "lang.parse"; "oracle.expected"; "store.open"; "session.create";
    "oracle.create"; "demand.locate"; "ledger.serialize" ]

let resume_calls =
  [ "lang.parse"; "lang.parse"; "oracle.expected"; "store.open"; "session.create";
    "recover.plan"; "recover.prime"; "oracle.create"; "demand.locate"; "ledger.serialize" ]

let untimed_pass requests = Array.map (fun req -> req (Obs.create ())) requests

let counter (r : Request.t) name = Metrics.counter_value (Obs.metrics r.Request.obs) name
let reports rs = Array.to_list rs |> List.filter_map (fun r -> r.Request.report)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let with_all rs k =
  if Array.exists Option.is_none rs then [ "a request raised" ]
  else k (Array.map Option.get rs)

let expect what want got =
  if want = got then [] else [ Printf.sprintf "%s: expected %d, got %d" what want got ]

(* Everything a localization concludes, minus counts that legitimately
   differ between a cold and a warm store. *)
let signature (r : Request.t) =
  Option.map
    (fun (rep : Demand.report) ->
      ( rep.Demand.found, rep.Demand.user_prunings, rep.Demand.total_prunings,
        rep.Demand.iterations, rep.Demand.expanded_edges, rep.Demand.implicit_edges,
        rep.Demand.benign,
        List.map Slice.sids [ rep.Demand.ips; rep.Demand.ds; rep.Demand.ps0 ],
        rep.Demand.os_chain ))
    r.Request.report

let memory_store () = Store.create ()
let disk_store dir () = Store.create ~dir:(Filename.concat dir "store") ()

let suite_requests ~pool ~store =
  Array.of_list (List.map (fun bf obs -> Request.suite ~obs ~pool ~store bf) Suite.rows)

let suite_cold =
  let setup ~pool ~work:_ ~corpus_seed:_ =
    let requests = suite_requests ~pool ~store:memory_store in
    ignore (untimed_pass requests);
    let check rs =
      with_all rs @@ fun rs ->
      let reps = reports rs in
      expect "located" (List.length Suite.rows)
        (List.length (List.filter (fun r -> r.Demand.found) reps))
      @ expect "switched runs" suite_switched_runs (sum (fun r -> r.Demand.verifications) reps)
      @ expect "queries" suite_queries (sum (fun r -> r.Demand.verify_queries) reps)
    in
    { requests; calls = suite_calls; check; disk = None;
      final_check = (fun () -> []) }
  in
  { name = "suite-cold"; setup }

let suite_warm =
  let setup ~pool ~work ~corpus_seed:_ =
    let dir = Filename.concat work "suite-store" in
    Measure.rm_rf dir;
    let requests = suite_requests ~pool ~store:(fun () -> Store.create ~dir ()) in
    (* the first pass fills the store; its results are the cold truth *)
    let cold = Array.map signature (untimed_pass requests) in
    ignore (untimed_pass requests);
    let check rs =
      with_all rs @@ fun rs ->
      let differ = ref [] in
      Array.iteri (fun i r -> if signature r <> cold.(i) then differ := i :: !differ) rs;
      (if !differ = [] then []
       else [ Printf.sprintf "%d localizations differ from the cold store's" (List.length !differ) ])
      @ expect "store misses" 0 (sum (fun r -> r.Demand.store.Store.misses) (reports rs))
    in
    { requests; calls = suite_calls; check; disk = Some dir;
      final_check = (fun () -> []) }
  in
  { name = "suite-warm"; setup }

let rows rs = Array.map (fun r -> Option.map Campaign.outcome_to_string r.Request.row) rs
let canonical rs = Array.map (fun r -> Option.value ~default:"" r.Request.canonical) rs

let journals dir triples =
  Array.map
    (fun t ->
      let p = Request.journal dir t in
      if Sys.file_exists p then Measure.read_file p else "")
    triples

let mismatches what ~want got =
  let bad = ref 0 in
  Array.iteri (fun i x -> if x <> want.(i) then incr bad) got;
  if !bad = 0 then [] else [ Printf.sprintf "%d %s differ" !bad what ]

let corpus_failures ~corpus_seed rs =
  let failed = Array.to_list rs |> List.filter Request.failed |> List.length in
  let located = Array.to_list rs |> List.filter Request.found |> List.length in
  expect "failed triples" 0 failed
  @ if corpus_seed = 1 then expect "located triples" corpus_seed1_located located else []

(* {!Campaign.run_triple} itself over [dir]: the same rows and the same
   journal bytes as the benchmark's requests produced. *)
let campaign_reference ~pool ~dir triples ~rows:want ~journals:want_j =
  let got =
    Array.map
      (fun t -> Some (Campaign.outcome_to_string (Campaign.run_triple ~pool ~dir t)))
      triples
  in
  mismatches "Campaign.run_triple rows" ~want got
  @ mismatches "Campaign.run_triple journals" ~want:want_j (journals dir triples)

let triple_requests ~pool ~dir ~store ~persist triples =
  Array.map (fun t obs -> Request.triple ~obs ~pool ~dir ~store ~persist t) triples

let fresh_campaign dir =
  Measure.rm_rf dir;
  Campaign.ensure_layout dir

let corpus triples_seed =
  Array.of_list (Campaign.generate ~seed:triples_seed ~count:corpus_count ()).Campaign.m_triples

(* Timed corpus requests neither write files nor keep verdicts on disk.
   On a shared disk, a store's file-per-verdict writes spread pass
   throughput by 26% between runs, and writing each canonical ledger
   spread the sub-millisecond requests' p50 by 20-32%, against 4% with
   the ledger serialized in memory.  The store's disk tier is timed by
   the warm workload's reads and by the layer probes; the disk path
   itself is checked against [Campaign.run_triple] after measuring. *)
let corpus_campaign =
  let setup ~pool ~work ~corpus_seed =
    let triples = corpus corpus_seed in
    let dir = Filename.concat work "campaign" in
    fresh_campaign dir;
    let requests = triple_requests ~pool ~dir ~store:memory_store ~persist:false triples in
    let first = untimed_pass requests in
    let want = rows first and want_l = canonical first in
    let check rs =
      with_all rs @@ fun rs ->
      mismatches "rows" ~want (rows rs)
      @ mismatches "ledgers" ~want:want_l (canonical rs)
      @ corpus_failures ~corpus_seed rs
    in
    (* the requests over a disk store, writing their ledgers as the
       campaign does, against [Campaign.run_triple] itself *)
    let final_check () =
      let mine = Filename.concat work "requests" and theirs = Filename.concat work "run_triple" in
      fresh_campaign mine;
      fresh_campaign theirs;
      let want =
        rows (untimed_pass (triple_requests ~pool ~dir:mine ~store:(disk_store mine) ~persist:true triples))
      in
      campaign_reference ~pool ~dir:theirs triples ~rows:want ~journals:(journals mine triples)
    in
    { requests; calls = campaign_calls; check; disk = Some dir; final_check }
  in
  { name = "corpus-campaign"; setup }

let corpus_resume =
  let setup ~pool ~work ~corpus_seed =
    let triples = corpus corpus_seed in
    let dir = Filename.concat work "resume" in
    fresh_campaign dir;
    (* A cold pass leaves complete journals behind; every later pass
       replays them.  Replay seeds the store with every recorded
       verdict, and on a disk store it rewrites each one already there:
       on ext4 a rewrite forces that file's writeback, and deleting a
       pass's store then took 1.3-1.9 s against 5 ms for files written
       once.  So the replaying passes use a memory-only store too. *)
    let want =
      rows (untimed_pass (triple_requests ~pool ~dir ~store:memory_store ~persist:true triples))
    in
    let want_j = journals dir triples in
    let requests = triple_requests ~pool ~dir ~store:memory_store ~persist:false triples in
    ignore (untimed_pass requests);
    let check rs =
      with_all rs @@ fun rs ->
      let reps = Array.to_list rs |> List.filter (fun r -> r.Request.report <> None) in
      mismatches "rows" ~want (rows rs)
      @ mismatches "ledgers" ~want:want_j (canonical rs)
      @ corpus_failures ~corpus_seed rs
      @ expect "interpreter runs (failing runs only)" (List.length reps)
          (sum (fun r -> counter r "interp.runs") reps)
    in
    (* [run_triple] resumes from the same journals, over a disk store *)
    let final_check () = campaign_reference ~pool ~dir triples ~rows:want ~journals:want_j in
    { requests; calls = resume_calls; check; disk = Some dir; final_check }
  in
  { name = "corpus-resume"; setup }

let all = [ suite_cold; suite_warm; corpus_campaign; corpus_resume ]
