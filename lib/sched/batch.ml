(* The batch verification planner's generic half: stable grouping.

   Determinism contract: [group_by] keeps both group order (first
   occurrence) and within-group order stable.  A planner that (1) groups
   work that must be serialized — e.g. all switched runs of one static
   predicate, whose circuit breaker is a sequential state machine —
   into one {!Pool.run} task, and (2) merges per-task accounting in
   submission order, produces output bit-identical to the sequential
   engine at any job count. *)

let group_by ~key items =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt tbl k with
      | Some group -> group := item :: !group
      | None ->
        let group = ref [ item ] in
        Hashtbl.add tbl k group;
        order := (k, group) :: !order)
    items;
  List.rev_map (fun (k, group) -> (k, List.rev !group)) !order
