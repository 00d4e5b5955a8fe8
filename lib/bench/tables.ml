(* The paper's evaluation as plain-text tables (Tables 1-4), the
   robustness telemetry of the same runs, and the ablations of the
   design decisions DESIGN.md calls out (A-D). *)

module B = Bench_types
module Demand = Exom_core.Demand
module Guard = Exom_core.Guard
module Table = Exom_util.Table
module Typecheck = Exom_lang.Typecheck

(* One titled table: the title line, the rows, an optional note line,
   then a blank line.  [aligns] spells one column per character, 'L'
   or 'R'. *)
let table ?note title aligns headers rows =
  print_endline title;
  let t =
    Table.create
      ~aligns:
        (List.init (String.length aligns) (fun i ->
             if aligns.[i] = 'R' then Table.Right else Table.Left))
      headers
  in
  List.iter (Table.add_row t) rows;
  Table.print t;
  Option.iter print_endline note;
  print_newline ()

let fmt_sizes (s : Runner.sizes) =
  Printf.sprintf "%d/%d" s.Runner.static_size s.Runner.dynamic_size

let fmt_ratio a b =
  let r x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  Printf.sprintf "%.2f/%.2f"
    (r a.Runner.static_size b.Runner.static_size)
    (r a.Runner.dynamic_size b.Runner.dynamic_size)

let yes_no ?(no = "NO") b = if b then "yes" else no

let table_1 () =
  table "== Table 1: Characteristics of benchmarks ==" "LRRLL"
    [ "Benchmark"; "LOC"; "# of procedures"; "Error type"; "Description" ]
    (List.map
       (fun b ->
         let prog = Typecheck.parse_and_check b.B.source in
         [ b.B.name;
           string_of_int (B.loc_count b);
           string_of_int (B.procedure_count prog);
           b.B.error_type;
           b.B.description ])
       Suite.all)

let table_2 results =
  let count p = List.length (List.filter p results) in
  table "== Table 2: Execution omission errors (slice sizes, static/dynamic) =="
    "LLRRRRRL"
    [ "Benchmark"; "Error"; "RS"; "DS"; "PS"; "RS/DS"; "RS/PS"; "captured by" ]
    ~note:
      (Printf.sprintf
         "(RS captures %d/%d roots; DS misses %d/%d — the execution omission \
          errors)"
         (count (fun r -> r.Runner.root_in_rs))
         (List.length results)
         (count (fun r -> not r.Runner.root_in_ds))
         (List.length results))
    (List.map
       (fun (r : Runner.result) ->
         let captured =
           String.concat ""
             [ (if r.Runner.root_in_rs then "RS " else "");
               (if r.Runner.root_in_ds then "DS " else "");
               (if r.Runner.root_in_ps then "PS" else "") ]
         in
         [ r.Runner.bench.B.name;
           r.Runner.fault.B.fid;
           fmt_sizes r.Runner.rs;
           fmt_sizes r.Runner.ds;
           fmt_sizes r.Runner.ps;
           fmt_ratio r.Runner.rs r.Runner.ds;
           fmt_ratio r.Runner.rs r.Runner.ps;
           (if captured = "" then "none" else String.trim captured) ])
       results)

let table_3 results =
  table "== Table 3: Effectiveness ==" "LLRRRRRRL"
    [ "Benchmark"; "Error"; "# of user prunings"; "# of verifications";
      "# of iterations"; "# of expanded edges"; "IPS"; "OS"; "located" ]
    (List.map
       (fun (r : Runner.result) ->
         let rep = r.Runner.report in
         [ r.Runner.bench.B.name;
           r.Runner.fault.B.fid;
           string_of_int rep.Demand.user_prunings;
           string_of_int rep.Demand.verifications;
           string_of_int rep.Demand.iterations;
           string_of_int rep.Demand.expanded_edges;
           fmt_sizes r.Runner.ips;
           (match r.Runner.os_ with Some s -> fmt_sizes s | None -> "-");
           yes_no rep.Demand.found ])
       results)

let table_4 results =
  table "== Table 4: Performance ==" "LLRRRR"
    [ "Benchmark"; "Error"; "Plain (sec.)"; "Graph (sec.)"; "Verif. (sec.)";
      "Graph/Plain" ]
    (List.map
       (fun (r : Runner.result) ->
         let ratio =
           if r.Runner.plain_seconds > 0.0 then
             r.Runner.graph_seconds /. r.Runner.plain_seconds
           else 0.0
         in
         [ r.Runner.bench.B.name;
           r.Runner.fault.B.fid;
           Printf.sprintf "%.5f" r.Runner.plain_seconds;
           Printf.sprintf "%.5f" r.Runner.graph_seconds;
           Printf.sprintf "%.5f" r.Runner.verif_seconds;
           Printf.sprintf "%.1f" ratio ])
       results)

let robustness results =
  table
    "== Robustness telemetry (switched re-executions during Table 3/4 runs) =="
    "LLRRRRR"
    [ "Benchmark"; "Error"; "runs"; "completed"; "aborted";
      "breaker trips/skips"; "captured" ]
    (List.map
       (fun (r : Runner.result) ->
         let g = r.Runner.robustness in
         [ r.Runner.bench.B.name;
           r.Runner.fault.B.fid;
           string_of_int r.Runner.report.Demand.verifications;
           string_of_int g.Guard.completed;
           string_of_int g.Guard.aborted;
           Printf.sprintf "%d/%d" g.Guard.breaker_trips g.Guard.breaker_skips;
           string_of_int g.Guard.captured ])
       results)

let ablations () =
  table
    "== Ablation A: confidence over blind potential edges (the \"plausible \
     alternative\" of §3.2) =="
    "LLRRL"
    [ "Benchmark"; "Error"; "C(root) verified"; "C(root) potential";
      "root sanitized?" ]
    (List.map
       (fun (b, f) ->
         let s = Ablation.potential_confidence_sanitizes b f in
         [ b.B.name;
           f.B.fid;
           Printf.sprintf "%.3f" s.Ablation.conf_verified;
           Printf.sprintf "%.3f" s.Ablation.conf_potential;
           (if s.Ablation.sanitized then "YES (root lost)" else "no") ])
       Suite.rows);
  table "== Ablation B: edge-approximated vs path-exact VerifyDep (§3.2) =="
    "LLLRRLRR"
    [ "Benchmark"; "Error"; "edge: found"; "verif"; "edges"; "path: found";
      "verif"; "edges" ]
    (List.map
       (fun (name, fid) ->
         let b = Option.get (Suite.find name) in
         let c =
           Ablation.compare_verify_modes b (Option.get (Suite.find_fault b fid))
         in
         let cells r =
           [ yes_no r.Demand.found;
             string_of_int r.Demand.verifications;
             string_of_int r.Demand.expanded_edges ]
         in
         (name :: fid :: cells c.Ablation.edge_report)
         @ cells c.Ablation.path_report)
       [ ("flexsim", "V1-F9"); ("grepsim", "V4-F2"); ("gzipsim", "V2-F3");
         ("sedsim", "V3-F2") ]);
  table
    "== Ablation C: condition (iv) backend — static analysis vs the paper's \
     union dependence graph =="
    "LLRRRL"
    [ "Benchmark"; "Error"; "RS static-(iv)"; "RS union-(iv)"; "union pairs";
      "root kept" ]
    (List.map
       (fun (b, f) ->
         let r = Ablation.compare_rs_backends b f in
         let ss, sd = r.Ablation.rs_static and us, ud = r.Ablation.rs_union in
         [ b.B.name;
           f.B.fid;
           Printf.sprintf "%d/%d" ss sd;
           Printf.sprintf "%d/%d" us ud;
           string_of_int r.Ablation.union_pairs;
           yes_no ~no:"LOST" r.Ablation.root_in_union ])
       Suite.rows);
  table
    "== Comparison D: critical-predicate search (ICSE'06 [18], §6) vs \
     demand-driven implicit dependences =="
    "LLRRRL"
    [ "Benchmark"; "Error"; "critical preds found"; "re-executions";
      "demand verifications"; "demand located" ]
    ~note:
      "(a fault with 0 critical predicates cannot be found by whole-output \
       switching at any cost)"
    (List.map
       (fun (b, f) ->
         let c = Ablation.compare_with_critical_search b f in
         [ b.B.name;
           f.B.fid;
           string_of_int c.Ablation.critical_found;
           string_of_int c.Ablation.critical_executions;
           string_of_int c.Ablation.demand_verifications;
           yes_no c.Ablation.demand_found ])
       Suite.rows)

let print results =
  table_1 ();
  table_2 results;
  table_3 results;
  table_4 results;
  robustness results;
  ablations ()
