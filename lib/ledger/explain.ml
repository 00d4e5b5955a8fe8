module Dot = Exom_ddg.Dot

(* Turns the event stream back into the story of the search: what
   failed, how the pruned slice evolved, which implicit dependences were
   verified (and on what evidence), and where the root cause entered. *)

let inst_str (i : Ledger.inst) =
  Printf.sprintf "line %d (inst #%d, occ %d)" i.line i.idx i.occ

let find_map f evs = List.find_map f evs

type session_view = {
  wrong : Ledger.inst;
  vexp : string option;
  correct_outputs : int;
  budget : int;
  trace_len : int;
}

type final_view = {
  found : bool;
  iterations : int;
  f_edges : int;
  user_prunings : int;
  total_prunings : int;
  verifications : int;
  queries : int;
  os_chain : int list option;
  degraded : string option;
}

let session_of evs =
  find_map
    (function
      | Ledger.Session { wrong; vexp; correct_outputs; budget; trace_len; _ } ->
        Some { wrong; vexp; correct_outputs; budget; trace_len }
      | _ -> None)
    evs

let locate_of evs =
  find_map
    (function
      | Ledger.Locate { root_sids; mode; max_iterations } ->
        Some (root_sids, mode, max_iterations)
      | _ -> None)
    evs

let final_of evs =
  find_map
    (function
      | Ledger.Final
          { found; iterations; edges; user_prunings; total_prunings;
            verifications; queries; os_chain; degraded } ->
        Some
          { found; iterations; f_edges = edges; user_prunings; total_prunings;
            verifications; queries; os_chain; degraded }
      | _ -> None)
    evs

let slices_of evs =
  List.filter_map
    (function
      | Ledger.Slice { iter; entries; added; removed } ->
        Some (iter, entries, added, removed)
      | _ -> None)
    evs

let ranks_of evs =
  List.filter_map
    (function
      | Ledger.Rank { iter; u; prior; decisions } ->
        Some (iter, u, prior, decisions)
      | _ -> None)
    evs

(* Each admitted edge, paired with the verification evidence recorded
   for the same (p, u) instance pair, and the iteration (the iter of the
   next Slice snapshot) it contributed to. *)
let edges_with_evidence evs =
  let rec go pending acc = function
    | [] -> List.rev acc @ List.rev_map (fun (e, v) -> (e, v, None)) pending
    | Ledger.Slice { iter; _ } :: rest ->
      let closed =
        List.rev_map (fun (e, v) -> (e, v, Some iter)) pending
      in
      go [] (closed @ acc) rest
    | (Ledger.Edge { ep; eu; _ } as e) :: rest ->
      let ev =
        find_map
          (function
            | Ledger.Verify v
              when v.Ledger.vp.idx = ep.idx && v.Ledger.vu.idx = eu.idx ->
              Some v
            | _ -> None)
          evs
      in
      go ((e, ev) :: pending) acc rest
    | _ :: rest -> go pending acc rest
  in
  (* [acc] collects newest-first between snapshots; restore order. *)
  go [] [] evs |> List.rev

let align_str (a : Ledger.align_info) =
  let b = Buffer.create 64 in
  (match a.counterpart with
  | Some c ->
    Buffer.add_string b (Printf.sprintf "target aligns with inst #%d" c)
  | None ->
    Buffer.add_string b
      "no counterpart in switched run (Definition 2 case (i))");
  if a.rerouted then
    Buffer.add_string b "; definition rerouted through switched region";
  (match a.ox_counterpart with
  | Some c ->
    Buffer.add_string b
      (Printf.sprintf "; failure point aligns with inst #%d (%s)" c
         (if a.ox_restored then "expected value restored"
          else "value unchanged"))
  | None -> ());
  Buffer.contents b

let run_str (r : Ledger.run_info) =
  Printf.sprintf "switched run %s after %d steps, switch %s" r.outcome r.steps
    (if r.switch_fired then "fired" else "never fired")

type lineage = { resumes : int; torn_tail : bool }

(* Split [evs] at the last resume marker's replayed count: everything
   before it was consumed from the journal without re-execution,
   everything after ran live.  Rendered as batch ordinals because each
   Batch event is one [verify.batch] span on the trace's coordinator
   lane — the narrative and the spine name the same objects. *)
let replay_story (gens : Ledger.resume_info list) evs b =
  match gens with
  | [] -> ()
  | _ ->
    let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let last = List.nth gens (List.length gens - 1) in
    let replayed_n = last.Ledger.ri_replayed in
    let batches l =
      List.length
        (List.filter (function Ledger.Batch _ -> true | _ -> false) l)
    in
    let verifs l =
      List.length
        (List.filter (function Ledger.Verify _ -> true | _ -> false) l)
    in
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | e :: rest -> split (k - 1) (e :: acc) rest
    in
    let replayed, live = split replayed_n [] evs in
    pr "\n--- Resume replay ---\n";
    List.iteri
      (fun i (g : Ledger.resume_info) ->
        pr "resume %d replayed %d event%s from its predecessor%s\n" (i + 1)
          g.Ledger.ri_replayed
          (if g.Ledger.ri_replayed = 1 then "" else "s")
          (if g.Ledger.ri_truncated then " (its torn tail was dropped)"
           else ""))
      gens;
    let rb = batches replayed and lb = batches live in
    if rb > 0 then
      pr
        "replayed without re-execution: verify.batch span%s 1-%d (%d \
         verification%s consumed from the journal)\n"
        (if rb = 1 then "" else "s")
        rb (verifs replayed)
        (if verifs replayed = 1 then "" else "s")
    else pr "replayed without re-execution: none (resume at the very start)\n";
    if lb > 0 then
      pr "re-executed live: verify.batch span%s %d-%d (%d verification%s)\n"
        (if lb = 1 then "" else "s")
        (rb + 1) (rb + lb) (verifs live)
        (if verifs live = 1 then "" else "s")
    else pr "re-executed live: none (the journal already covered the run)\n"

(* The last checkpoint is cumulative, so it alone carries the run's
   complete failure journal, breaker history and store accounting. *)
let last_checkpoint evs =
  List.fold_left
    (fun acc ev ->
      match ev with Ledger.Checkpoint c -> Some c | _ -> acc)
    None evs

let render ?lineage ?(replay = []) evs =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "=== Localization narrative ===\n";
  (match lineage with
  | Some { resumes; torn_tail } when resumes > 0 || torn_tail ->
    pr "resume lineage: %d prior resume%s%s\n" resumes
      (if resumes = 1 then "" else "s")
      (if torn_tail then "; predecessor's tail was torn and dropped"
       else "")
  | _ -> ());
  replay_story replay evs b;
  (match session_of evs with
  | Some s ->
    pr "wrong output at %s" (inst_str s.wrong);
    (match s.vexp with
    | Some v -> pr ", expected value %s" v
    | None -> ());
    pr "\n%d correct profile run%s; interpreter budget %d; trace length %d\n"
      s.correct_outputs
      (if s.correct_outputs = 1 then "" else "s")
      s.budget s.trace_len
  | None -> pr "(no session record)\n");
  (match locate_of evs with
  | Some (root_sids, mode, max_iterations) ->
    pr "search: %s mode, max %d iterations, seeded root sid%s [%s]\n" mode
      max_iterations
      (if List.length root_sids = 1 then "" else "s")
      (String.concat "; " (List.map string_of_int root_sids))
  | None -> ());
  let slices = slices_of evs in
  if slices <> [] then begin
    pr "\n--- Slice evolution ---\n";
    pr "%-5s %-6s %-7s %-9s %s\n" "iter" "size" "added" "removed" "min conf";
    List.iter
      (fun (iter, entries, added, removed) ->
        let min_conf =
          List.fold_left
            (fun acc (e : Ledger.slice_entry) -> min acc e.s_conf)
            infinity entries
        in
        pr "%-5d %-6d %-7s %-9s %s\n" iter (List.length entries)
          (Printf.sprintf "+%d" (List.length added))
          (Printf.sprintf "-%d" (List.length removed))
          (if entries = [] then "-" else Printf.sprintf "%.3f" min_conf))
      slices
  end;
  (* How the candidates of each expansion were ordered for verification
     (v3 ledgers; v2 ledgers simply have no rank events). *)
  let ranks = ranks_of evs in
  if ranks <> [] then begin
    pr "\n--- Ranked verification order ---\n";
    List.iter
      (fun (iter, u, prior, ds) ->
        let cut =
          List.length (List.filter (fun d -> not d.Ledger.rd_kept) ds)
        in
        pr "iteration %d, expansion at %s: prior %.4f, %d candidate%s, %d cut\n"
          iter (inst_str u) prior (List.length ds)
          (if List.length ds = 1 then "" else "s")
          cut;
        pr "  order:%s\n"
          (String.concat ""
             (List.map
                (fun (d : Ledger.rank_decision) ->
                  Printf.sprintf " s%d#%d(%.4f%s)" d.Ledger.rd_sid
                    d.Ledger.rd_idx d.Ledger.rd_score
                    (if d.Ledger.rd_kept then "" else " CUT"))
                ds)))
      ranks
  end;
  let edges = edges_with_evidence evs in
  if edges <> [] then begin
    pr "\n--- Verified implicit dependences ---\n";
    List.iteri
      (fun k ((e : Ledger.event), ev, iter) ->
        match e with
        | Ledger.Edge { ep; eu; strength; value_affected; related } ->
          pr "[%d] %s implicit dependence: predicate %s ==> use %s%s%s\n"
            (k + 1) strength (inst_str ep) (inst_str eu)
            (if related then " (related-target fan-out)" else "")
            (match iter with
            | Some i -> Printf.sprintf "  [iteration %d]" i
            | None -> "");
          (match ev with
          | None -> pr "      (no verification record)\n"
          | Some (v : Ledger.verify_ev) ->
            pr "      verdict %s%s, source %s\n" v.verdict
              (if v.value_affected then " (value affected)" else "")
              v.source;
            (match v.run with
            | Some r -> pr "      %s\n" (run_str r)
            | None -> ());
            (match v.align with
            | Some a -> pr "      alignment: %s\n" (align_str a)
            | None -> ());
            (match v.failure with
            | Some f -> pr "      degraded: %s\n" f
            | None -> ()));
          if value_affected then
            pr "      switching the predicate changed the wrong output \
               (Definition 4)\n"
        | _ -> ())
      edges
  end;
  (* Where (and how) the seeded root cause entered the slice. *)
  (match locate_of evs with
  | Some (root_sids, _, _) when root_sids <> [] ->
    pr "\n--- Root cause ---\n";
    let hit =
      List.find_map
        (fun (iter, entries, added, _) ->
          match
            List.find_opt
              (fun (e : Ledger.slice_entry) -> List.mem e.s_sid root_sids)
              entries
          with
          | Some e -> Some (iter, e, List.mem e.s_idx added)
          | None -> None)
        slices
    in
    (match hit with
    | None ->
      pr "the seeded root cause (sid%s %s) never entered the slice\n"
        (if List.length root_sids = 1 then "" else "s")
        (String.concat ", " (List.map string_of_int root_sids))
    | Some (0, e, _) ->
      pr
        "seeded root cause at line %d (sid %d, inst #%d) was already in \
         the initial pruned slice (confidence %.3f)\n"
        e.s_line e.s_sid e.s_idx e.s_conf
    | Some (iter, e, _) ->
      pr
        "seeded root cause at line %d (sid %d, inst #%d) entered the \
         slice at iteration %d (confidence %.3f)\n"
        e.s_line e.s_sid e.s_idx iter e.s_conf;
      let via =
        List.filter_map
          (fun (ed, _, it) ->
            match (ed, it) with
            | Ledger.Edge { ep; eu; strength; _ }, Some i when i = iter ->
              Some (Printf.sprintf "%s edge %s ==> %s" strength (inst_str ep)
                      (inst_str eu))
            | _ -> None)
          edges
      in
      if via <> [] then
        pr "  via: %s\n" (String.concat "\n       " via))
  | _ -> ());
  (* Aggregate verification accounting, from the batch records. *)
  let q, hits, runs, total =
    List.fold_left
      (fun (q, h, r, t) ev ->
        match ev with
        | Ledger.Batch b ->
          (q + b.queries, h + b.cache_hits, r + b.runs, b.total_runs)
        | _ -> (q, h, r, t))
      (0, 0, 0, 0) evs
  in
  if q > 0 then begin
    pr "\n--- Verification cost ---\n";
    pr "%d queries, %d cache hits, %d switched runs dispatched \
       (%d cumulative verify runs)\n"
      q hits runs total
  end;
  (* Trouble report, from the last (cumulative) checkpoint: rendered
     only when the run actually degraded somewhere, so a clean run's
     narrative is unchanged. *)
  let tripped =
    match last_checkpoint evs with
    | None -> []
    | Some ck ->
      (* every queried predicate materializes a breaker; only the ones
         that saw failures are part of the trouble story *)
      List.filter
        (fun (br : Ledger.breaker_info) ->
          br.Ledger.b_consecutive > 0 || br.Ledger.b_opened)
        ck.Ledger.ck_breakers
  in
  (match last_checkpoint evs with
  | Some ck
    when ck.Ledger.ck_failures <> [] || tripped <> []
         || ck.Ledger.ck_guard.Ledger.g_aborted > 0
         || ck.Ledger.ck_guard.Ledger.g_captured > 0
         || ck.Ledger.ck_store.Ledger.st_corrupted > 0 ->
    let g = ck.Ledger.ck_guard in
    pr "\n--- Robustness ---\n";
    pr
      "guard: %d completed, %d aborted, %d breaker trip%s (%d skip%s), %d \
       contained exception%s\n"
      g.Ledger.g_completed g.Ledger.g_aborted g.Ledger.g_breaker_trips
      (if g.Ledger.g_breaker_trips = 1 then "" else "s")
      g.Ledger.g_breaker_skips
      (if g.Ledger.g_breaker_skips = 1 then "" else "s")
      g.Ledger.g_captured
      (if g.Ledger.g_captured = 1 then "" else "s");
    if ck.Ledger.ck_failures <> [] then begin
      pr "failure journal (%d entr%s, oldest first):\n"
        (List.length ck.Ledger.ck_failures)
        (if List.length ck.Ledger.ck_failures = 1 then "y" else "ies");
      List.iter
        (fun (sid, code) -> pr "  s%-4d %s\n" sid code)
        ck.Ledger.ck_failures
    end;
    if tripped <> [] then begin
      pr "circuit breakers (with failures):\n";
      List.iter
        (fun (br : Ledger.breaker_info) ->
          pr "  s%-4d %d consecutive failure%s, %s\n" br.Ledger.b_sid
            br.Ledger.b_consecutive
            (if br.Ledger.b_consecutive = 1 then "" else "s")
            (if br.Ledger.b_opened then
               "OPEN (its verifications were skipped)"
             else "closed"))
        tripped
    end;
    let st = ck.Ledger.ck_store in
    if st.Ledger.st_corrupted > 0 then
      pr
        "store: %d corrupted entr%s detected and quarantined (each was \
         re-verified live; the verdicts above are unaffected)\n"
        st.Ledger.st_corrupted
        (if st.Ledger.st_corrupted = 1 then "y" else "ies")
  | _ -> ());
  (match final_of evs with
  | Some f ->
    pr "\n--- Outcome ---\n";
    pr "root cause %s after %d iteration%s: %d implicit edge%s, \
       %d verifications (%d queries), %d/%d prunings answered\n"
      (if f.found then "FOUND" else "not found")
      f.iterations
      (if f.iterations = 1 then "" else "s")
      f.f_edges
      (if f.f_edges = 1 then "" else "s")
      f.verifications f.queries f.user_prunings f.total_prunings;
    (match f.os_chain with
    | Some chain ->
      pr "shortest dependence chain to the wrong output: %s\n"
        (String.concat " -> " (List.map string_of_int chain))
    | None -> ());
    (match f.degraded with
    | Some d ->
      pr "DEGRADED: %s\n" d;
      pr
        "  the candidate set is best-effort: some verifications never \
         completed,\n  so missing implicit edges may hide the root \
         cause\n"
    | None -> ());
    if not f.found then begin
      (* Why "not located" happened, as far as the evidence shows. *)
      let skips =
        match last_checkpoint evs with
        | Some ck -> ck.Ledger.ck_guard.Ledger.g_breaker_skips
        | None -> 0
      in
      match locate_of evs with
      | Some (root_sids, _, max_iterations)
        when root_sids <> [] && root_sids <> [ -1 ] ->
        pr
          "not located: the seeded root cause (sid%s %s) was still \
           outside the slice when the search stopped"
          (if List.length root_sids = 1 then "" else "s")
          (String.concat ", " (List.map string_of_int root_sids));
        if f.iterations >= max_iterations then
          pr " (the iteration cap of %d was reached)" max_iterations;
        pr "\n";
        if skips > 0 then
          pr
            "  %d verification%s skipped by open breakers — an edge \
             behind one of them could be the missing link\n"
            skips
            (if skips = 1 then " was" else "s were")
      | _ ->
        pr
          "not located: no ground-truth root line was given, so the \
           search ran to exhaustion and reports the final candidate set\n"
    end
  | None ->
    pr "\n(no final record — ledger is incomplete";
    (match lineage with
    | Some _ ->
      pr
        ": this is a killed run's journal; resume it to completion or \
         inspect it with exom recover"
    | None -> ());
    pr ")\n");
  Buffer.contents b

let dot evs =
  let nodes = Hashtbl.create 16 in
  let add (i : Ledger.inst) shape fill =
    if not (Hashtbl.mem nodes i.idx) then
      Hashtbl.add nodes i.idx
        (i.idx, Printf.sprintf "line %d\n#%d.%d" i.line i.idx i.occ, shape, fill)
  in
  (match session_of evs with
  | Some s -> add s.wrong "doubleoctagon" (Some "#ffd0d0")
  | None -> ());
  let strong = ref [] and weak = ref [] in
  List.iter
    (function
      | Ledger.Edge { ep; eu; strength; _ } ->
        add ep "diamond" None;
        add eu "box" None;
        let pair = (ep.idx, eu.idx) in
        if strength = "strong" then strong := pair :: !strong
        else weak := pair :: !weak
      | _ -> ())
    evs;
  let node_list =
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  in
  Dot.render_causal ~nodes:node_list ~strong:(List.rev !strong)
    ~weak:(List.rev !weak)
