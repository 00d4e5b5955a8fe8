(* Tests for the Exom_sched subsystem: the verdict store (round-trip,
   corruption rejection), the domain pool and batch planner, and
   the scheduler's determinism contract — localization reports are
   bit-identical at -j1 and -j4, and warm-store reruns reproduce the
   cold localization without a single re-execution. *)

module Pool = Exom_sched.Pool
module Batch = Exom_sched.Batch
module Store = Exom_sched.Store
module Metrics = Exom_obs.Metrics
module Demand = Exom_core.Demand
module Slice = Exom_ddg.Slice
module B = Exom_bench.Bench_types
module Runner = Exom_bench.Runner
module Suite = Exom_bench.Suite
module Chaos = Exom_interp.Chaos

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_store_test_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* {2 Store} *)

let test_digest () =
  Alcotest.(check string)
    "deterministic"
    (Store.digest [ "a"; "bc" ])
    (Store.digest [ "a"; "bc" ]);
  Alcotest.(check bool)
    "length-prefixed parts do not collide" false
    (Store.digest [ "ab"; "c" ] = Store.digest [ "a"; "bc" ]);
  Alcotest.(check bool)
    "part count matters" false
    (Store.digest [ "abc" ] = Store.digest [ "abc"; "" ])

let test_memory_round_trip () =
  let s = Store.create () in
  let k = Store.digest [ "k" ] in
  Alcotest.(check (option string)) "miss before add" None (Store.find s k);
  Store.add s ~key:k "payload";
  Alcotest.(check (option string))
    "hit after add" (Some "payload") (Store.find s k);
  Store.add s ~key:k "replaced";
  Alcotest.(check (option string))
    "add replaces" (Some "replaced") (Store.find s k);
  let st = Store.stats s in
  Alcotest.(check int) "two hits" 2 st.Store.hits;
  Alcotest.(check int) "one miss" 1 st.Store.misses;
  Alcotest.(check int) "no disk writes without a dir" 0 st.Store.writes

let test_disk_round_trip () =
  with_temp_dir (fun dir ->
      let k = Store.digest [ "persisted" ] in
      let s1 = Store.create ~dir () in
      Store.add s1 ~key:k "the payload\nwith a newline";
      Alcotest.(check int) "written" 1 (Store.stats s1).Store.writes;
      (* a fresh store over the same dir: miss in memory, hit on disk *)
      let s2 = Store.create ~dir () in
      Alcotest.(check (option string))
        "disk hit" (Some "the payload\nwith a newline")
        (Store.find s2 k);
      Alcotest.(check int) "counted as disk hit" 1
        (Store.stats s2).Store.disk_hits;
      (* promoted to memory: second lookup is a memory hit *)
      ignore (Store.find s2 k);
      Alcotest.(check int) "promoted" 1 (Store.stats s2).Store.hits)

(* The files of a flat store directory, quarantine aside. *)
let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (( <> ) "quarantine")
  |> List.map (Filename.concat dir)
  |> List.sort compare

let entry_file dir =
  match entry_files dir with
  | [ f ] -> f
  | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)

let corrupt_with dir content =
  let path = entry_file dir in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_corrupted_rejected () =
  let try_corruption content =
    with_temp_dir (fun dir ->
        let k = Store.digest [ "x" ] in
        let s1 = Store.create ~dir () in
        Store.add s1 ~key:k "value";
        corrupt_with dir content;
        let s2 = Store.create ~dir () in
        let r = Store.find s2 k in
        Alcotest.(check (option string)) "rejected" None r;
        Alcotest.(check int) "counted corrupted" 1
          (Store.stats s2).Store.corrupted)
  in
  try_corruption "garbage";
  try_corruption "#exom-store v999\nwrongversion\n5\nvalue";
  (* right header, wrong key echo (a renamed/swapped file) *)
  try_corruption
    (Printf.sprintf "#exom-store v%d\n%s\n5\nvalue" Store.version
       (Store.digest [ "other" ]));
  (* truncated payload *)
  try_corruption
    (Printf.sprintf "#exom-store v%d\n%s\n100\nshort" Store.version
       (Store.digest [ "x" ]))

let test_hit_rate () =
  let s = Store.create () in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Store.hit_rate (Store.stats s));
  let k = Store.digest [ "k" ] in
  ignore (Store.find s k);
  Store.add s ~key:k "v";
  ignore (Store.find s k);
  Alcotest.(check (float 1e-9)) "1 hit / 2 lookups" 0.5
    (Store.hit_rate (Store.stats s))

(* Opening a store writes nothing: not into an empty directory, and
   not into one left in the older sharded layout, whose entries are
   not read — a lookup misses without counting corruption, and the
   verdict lands in the flat layout. *)
let test_open_writes_nothing () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      ignore (Store.create ~dir ());
      Alcotest.(check (array string)) "empty dir stays empty" [||]
        (Sys.readdir dir));
  with_temp_dir (fun dir ->
      let k = Store.digest [ "older layout" ] in
      let write path content =
        let oc = open_out_bin path in
        output_string oc content;
        close_out oc
      in
      Sys.mkdir dir 0o755;
      write (Filename.concat dir "MANIFEST")
        "{\"schema\":\"exom.store\",\"version\":2,\"shards\":16}\n";
      Sys.mkdir (Filename.concat dir "shard-007") 0o755;
      write
        (Filename.concat (Filename.concat dir "shard-007") k)
        (Printf.sprintf "#exom-store v%d\n%s\n5\nstale" Store.version k);
      let before = entry_files dir in
      let s = Store.create ~dir () in
      Alcotest.(check (list string)) "open writes nothing" before
        (entry_files dir);
      Alcotest.(check (option string)) "older entry not read" None
        (Store.find s k);
      Alcotest.(check int) "a miss, not corruption" 0
        (Store.stats s).Store.corrupted;
      Store.add s ~key:k "fresh";
      Alcotest.(check bool) "written flat" true
        (Sys.file_exists (Filename.concat dir k)))

(* {2 Multi-writer disk tier} *)

let test_corrupt_entry_quarantined () =
  with_temp_dir (fun dir ->
      let k = Store.digest [ "x" ] in
      let s1 = Store.create ~dir () in
      Store.add s1 ~key:k "value";
      corrupt_with dir "garbage";
      let obs = Exom_obs.Obs.create () in
      let s2 = Store.create ~obs ~dir () in
      Alcotest.(check (option string)) "rejected" None (Store.find s2 k);
      Alcotest.(check int) "moved aside" 1
        (Metrics.counter_value (Exom_obs.Obs.metrics obs) "store.quarantined");
      Alcotest.(check (list string)) "no entry left in the directory" []
        (entry_files dir);
      Alcotest.(check bool) "preserved for post-mortem" true
        (Sys.file_exists (Filename.concat dir "quarantine")
        && Sys.readdir (Filename.concat dir "quarantine") <> [||]);
      (* a second lookup is a clean miss, not a second corruption *)
      ignore (Store.find s2 k);
      Alcotest.(check int) "counted once" 1 (Store.stats s2).Store.corrupted)

(* The acceptance test: two processes hammering one store directory
   concurrently, with no lock between them, lose no entries, corrupt
   nothing, and agree with the single-process result. *)
let test_two_process_hammer () =
  with_temp_dir (fun dir ->
      let n = 200 in
      let key i = Store.digest [ "hammer"; string_of_int i ] in
      let value i = Printf.sprintf "verdict-%d\nwith a newline" i in
      let child seed =
        match Unix.fork () with
        | 0 ->
          let ok =
            try
              let s = Store.create ~dir () in
              (* interleave writes and reads over the shared keyspace,
                 each child starting from a different offset *)
              for j = 0 to n - 1 do
                let i = (j + seed) mod n in
                Store.add s ~key:(key i) (value i);
                ignore (Store.find s (key ((i + 7) mod n)))
              done;
              (Store.stats s).Store.corrupted = 0
            with _ -> false
          in
          Unix._exit (if ok then 0 else 1)
        | pid -> pid
      in
      let pids = [ child 0; child 101 ] in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "hammer child failed")
        pids;
      (* no torn temp files, nothing quarantined *)
      let leftovers =
        entry_files dir
        |> List.filter (fun f ->
               let b = Filename.basename f in
               not (String.length b = 32))
      in
      Alcotest.(check (list string)) "no temp litter" [] leftovers;
      Alcotest.(check bool) "no quarantine" true
        (not (Sys.file_exists (Filename.concat dir "quarantine")));
      (* every entry present, uncorrupted, and equal to what one
         process writing alone would have produced *)
      let survivor = Store.create ~dir () in
      for i = 0 to n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "entry %d survives" i)
          (Some (value i))
          (Store.find survivor (key i))
      done;
      Alcotest.(check int) "no corruption" 0
        (Store.stats survivor).Store.corrupted;
      with_temp_dir (fun solo_dir ->
          let solo = Store.create ~dir:solo_dir () in
          for i = 0 to n - 1 do
            Store.add solo ~key:(key i) (value i)
          done;
          let names d =
            entry_files d |> List.map Filename.basename |> List.sort compare
          in
          Alcotest.(check (list string))
            "same entries as the single-process run" (names solo_dir)
            (names dir)))

(* {2 Pool and Batch} *)

let test_pool_inline () =
  let p = Pool.create ~jobs:1 () in
  Alcotest.(check int) "one job" 1 (Pool.jobs p);
  let acc = ref [] in
  ignore (Pool.run p (List.map (fun i () -> acc := i :: !acc) [ 1; 2; 3 ]));
  (* jobs=1 runs inline, in order *)
  Alcotest.(check (list int)) "inline, in order" [ 3; 2; 1 ] !acc;
  Pool.shutdown p

let test_pool_parallel_completes () =
  let p = Pool.create ~jobs:4 () in
  let n = 100 in
  let hits = Array.make n false in
  ignore (Pool.run p (List.init n (fun i () -> hits.(i) <- true)));
  Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id hits);
  (* reusable across run calls *)
  let count = Atomic.make 0 in
  ignore (Pool.run p (List.init n (fun _ () -> Atomic.incr count)));
  Alcotest.(check int) "second wave" n (Atomic.get count);
  Pool.shutdown p;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run p [ (fun () -> ()) ]))

let test_batch_order_and_errors () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs () in
      let tasks =
        List.init 20 (fun i () ->
            if i = 7 then failwith "boom" else i * 10)
      in
      let results = Pool.run p tasks in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "submission order" (i * 10) v
          | Error (Failure msg) ->
            Alcotest.(check int) "only the failing slot" 7 i;
            Alcotest.(check string) "its exception" "boom" msg
          | Error e -> raise e)
        results;
      Pool.shutdown p)
    [ 1; 4 ]

let test_group_by_stable () =
  let groups =
    Batch.group_by ~key:(fun x -> x mod 3) [ 5; 3; 1; 4; 6; 2; 8 ]
  in
  Alcotest.(check (list (pair int (list int))))
    "keys by first occurrence, items in input order"
    [ (2, [ 5; 2; 8 ]); (0, [ 3; 6 ]); (1, [ 1; 4 ]) ]
    groups

(* The verification accounting contract formerly held by Tally, now
   carried by the verify.run timer of the metrics registry. *)
let test_verify_accounting () =
  let m = Metrics.create () in
  let v = Metrics.timed m "verify.run" (fun () -> 42) in
  Alcotest.(check int) "returns" 42 v;
  (try Metrics.timed m "verify.run" (fun () -> failwith "x")
   with Failure _ -> ());
  Alcotest.(check int) "raising runs still counted" 2
    (Metrics.timer_count m "verify.run");
  Alcotest.(check bool) "wall clock advances" true
    (Metrics.timer_seconds m "verify.run" >= 0.0);
  let into = Metrics.create () in
  Metrics.add into "verify.queries" 5;
  Metrics.absorb ~into m;
  Alcotest.(check int) "absorb sums" 2 (Metrics.timer_count into "verify.run");
  Alcotest.(check int) "absorb keeps counters" 5
    (Metrics.counter_value into "verify.queries")

(* {2 Determinism: -j1 vs -j4, warm vs cold} *)

let fault_of name fid =
  let b = Option.get (Suite.find name) in
  (b, Option.get (Suite.find_fault b fid))

(* What a localization claims, minus timings. *)
let locate_sig (r : Runner.result) =
  let rep = r.Runner.report in
  ( rep.Demand.found, rep.Demand.user_prunings, rep.Demand.total_prunings,
    rep.Demand.iterations, rep.Demand.expanded_edges,
    rep.Demand.implicit_edges, rep.Demand.benign,
    Slice.sids rep.Demand.ips, Slice.sids rep.Demand.ds,
    Slice.sids rep.Demand.ps0, rep.Demand.os_chain )

(* Cold runs additionally promise identical accounting. *)
let full_sig (r : Runner.result) =
  let rep = r.Runner.report in
  ( locate_sig r, rep.Demand.verifications, rep.Demand.verify_queries,
    rep.Demand.robustness, rep.Demand.failures )

(* Every suite fault: the determinism contract holds row by row.  So it
   does under interpreter chaos, where a failing switched run is
   contained inside its own task: grepsim V4-F2 under one fault of each
   kind, robustness accounting and failure journal included (a
   fault-injected search need not locate). *)
let test_j1_vs_j4 () =
  let p1 = Pool.create ~jobs:1 () in
  let p4 = Pool.create ~jobs:4 () in
  let check_same ?chaos name (b, f) =
    let seq = Runner.run_fault ?chaos ~pool:p1 b f in
    let par = Runner.run_fault ?chaos ~pool:p4 b f in
    Alcotest.(check bool) (name ^ ": -j1 = -j4") true
      (full_sig seq = full_sig par);
    seq
  in
  List.iter
    (fun (b, f) ->
      let name = b.B.name ^ " " ^ f.B.fid in
      let seq = check_same name (b, f) in
      Alcotest.(check bool) (name ^ " locates") true
        seq.Runner.report.Demand.found)
    Suite.rows;
  List.iter
    (fun fault ->
      let chaos = { Chaos.seed = 0; fault } in
      let name = "grepsim V4-F2 under " ^ Chaos.fault_to_string fault in
      ignore (check_same ~chaos name (fault_of "grepsim" "V4-F2")))
    Chaos.[ Crash_at 83; Raise_at 63; Truncate_budget 22; Corrupt_value 80 ];
  Pool.shutdown p1;
  Pool.shutdown p4

let test_warm_vs_cold () =
  let pool = Pool.create ~jobs:2 () in
  List.iter
    (fun (b, f) ->
      let name = b.B.name ^ " " ^ f.B.fid in
      let store = Store.create () in
      let cold = Runner.run_fault ~pool ~store b f in
      let warm = Runner.run_fault ~pool ~store b f in
      Alcotest.(check bool) (name ^ ": warm = cold localization") true
        (locate_sig cold = locate_sig warm);
      Alcotest.(check int) (name ^ ": warm run re-executes nothing") 0
        warm.Runner.report.Demand.verifications;
      Alcotest.(check int) (name ^ ": every warm query a hit")
        warm.Runner.report.Demand.verify_queries
        warm.Runner.report.Demand.store.Store.hits)
    Suite.rows;
  Pool.shutdown pool

let test_persistent_warm_across_stores () =
  (* cold process fills the disk tier; a second process (fresh store
     over the same dir) reproduces the localization from disk alone *)
  with_temp_dir (fun dir ->
      let b, f = fault_of "gzipsim" "V2-F3" in
      let cold = Runner.run_fault ~store:(Store.create ~dir ()) b f in
      let warm = Runner.run_fault ~store:(Store.create ~dir ()) b f in
      Alcotest.(check bool) "localization reproduced" true
        (locate_sig cold = locate_sig warm);
      Alcotest.(check int) "no re-executions" 0
        warm.Runner.report.Demand.verifications;
      Alcotest.(check int) "answered from disk"
        warm.Runner.report.Demand.verify_queries
        warm.Runner.report.Demand.store.Store.disk_hits)

let () =
  Alcotest.run "sched"
    [
      ( "store",
        [
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "memory round-trip" `Quick test_memory_round_trip;
          Alcotest.test_case "disk round-trip" `Quick test_disk_round_trip;
          Alcotest.test_case "corrupted entries rejected" `Quick
            test_corrupted_rejected;
          Alcotest.test_case "hit rate" `Quick test_hit_rate;
          Alcotest.test_case "opening a store writes nothing" `Quick
            test_open_writes_nothing;
        ] );
      ( "multi-writer",
        [
          Alcotest.test_case "corrupt entry quarantined" `Quick
            test_corrupt_entry_quarantined;
          Alcotest.test_case "two processes hammer one dir" `Quick
            test_two_process_hammer;
        ] );
      ( "pool",
        [
          Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_inline;
          Alcotest.test_case "jobs=4 completes everything" `Quick
            test_pool_parallel_completes;
          Alcotest.test_case "batch preserves submission order" `Quick
            test_batch_order_and_errors;
          Alcotest.test_case "stable grouping" `Quick test_group_by_stable;
          Alcotest.test_case "verify accounting" `Quick test_verify_accounting;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j1 = -j4 reports" `Quick test_j1_vs_j4;
          Alcotest.test_case "warm store = cold localization" `Quick
            test_warm_vs_cold;
          Alcotest.test_case "warm across processes (disk tier)" `Quick
            test_persistent_warm_across_stores;
        ] );
    ]
