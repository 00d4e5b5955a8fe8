(* The metrics registry: named counters, gauges and timers addressed by
   dot-separated paths ("verify.run", "store.hits") that form the metric
   tree `exom stats` renders.

   This absorbs what used to be Exom_sched.Tally: a worker-local
   registry is created per scheduler task ({!create}), accumulates
   privately, and is merged on the coordinator with {!absorb} in
   submission order — counters and timer counts are sums (commutative,
   so totals are independent of the job count), gauges merge by max
   (high-water semantics, e.g. pool queue depth).  Everything except
   wall-clock fields (timer seconds/min/max) is therefore deterministic
   for a given localization at any -j; {!render} with [~timings:false]
   shows exactly the deterministic subset. *)

type kind = Counter | Gauge | Timer

type metric = {
  name : string;
  kind : kind;
  mutable count : int;  (* timer observations *)
  mutable value : int;  (* counter total / gauge high-water mark *)
  mutable seconds : float;  (* timer sum *)
  mutable min_s : float;  (* timer minimum (infinity when empty) *)
  mutable max_s : float;  (* timer maximum (neg_infinity when empty) *)
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let get t name kind =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
    let m =
      { name; kind; count = 0; value = 0; seconds = 0.0;
        min_s = infinity; max_s = neg_infinity }
    in
    Hashtbl.replace t.tbl name m;
    m

let add t name n =
  let m = get t name Counter in
  m.value <- m.value + n

let incr t name = add t name 1

let gauge t name v =
  let m = get t name Gauge in
  if v > m.value || m.count = 0 then m.value <- v;
  m.count <- m.count + 1

let observe t name s =
  let m = get t name Timer in
  m.count <- m.count + 1;
  m.seconds <- m.seconds +. s;
  if s < m.min_s then m.min_s <- s;
  if s > m.max_s then m.max_s <- s

(* Charges the observation even when [f] raises: an injected fault
   aborting a re-execution still counts toward the run total (the
   Tally.counted contract this registry inherits). *)
let timed t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t name (Unix.gettimeofday () -. t0)) f

let find t name = Hashtbl.find_opt t.tbl name

(* Rebuild a metric wholesale (the `exom stats` reader recreating a
   registry from a JSONL file). *)
let restore t ~kind ~name ~count ~value ~seconds ~min_s ~max_s =
  let m = get t name kind in
  m.count <- count;
  m.value <- value;
  m.seconds <- seconds;
  m.min_s <- min_s;
  m.max_s <- max_s

let counter_value t name =
  match find t name with Some m -> m.value | None -> 0

let timer_count t name =
  match find t name with Some m -> m.count | None -> 0

let timer_seconds t name =
  match find t name with Some m -> m.seconds | None -> 0.0

let absorb ~into t =
  let merge m =
    let dst = get into m.name m.kind in
    match m.kind with
    | Counter -> dst.value <- dst.value + m.value
    | Gauge ->
      if m.value > dst.value || dst.count = 0 then dst.value <- m.value;
      dst.count <- dst.count + m.count
    | Timer ->
      dst.count <- dst.count + m.count;
      dst.seconds <- dst.seconds +. m.seconds;
      if m.min_s < dst.min_s then dst.min_s <- m.min_s;
      if m.max_s > dst.max_s then dst.max_s <- m.max_s
  in
  (* sorted so absorb order never depends on hash-table iteration *)
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b -> compare a.name b.name)
  |> List.iter merge

let to_list t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b -> compare a.name b.name)

(* {2 Rendering}

   Dot-paths become an indented tree:

     verify
       queries          144
       run              98 runs, 1.2345s total, 0.0126s avg

   [timings:false] suppresses every wall-clock figure (timers print
   their counts only), yielding output that is bit-identical across job
   counts and machines. *)

let describe ~timings m =
  match m.kind with
  | Counter -> string_of_int m.value
  | Gauge -> Printf.sprintf "%d (max)" m.value
  | Timer ->
    if not timings then Printf.sprintf "%d runs" m.count
    else if m.count = 0 then "0 runs"
    else
      Printf.sprintf "%d runs, %.4fs total, %.4fs avg" m.count m.seconds
        (m.seconds /. float_of_int m.count)

type node = {
  mutable subs : (string * node) list;  (* reversed during build *)
  mutable here : metric option;
}

let render ?(timings = true) t =
  let root = { subs = []; here = None } in
  let rec place node segs m =
    match segs with
    | [] -> node.here <- Some m
    | s :: rest ->
      let child =
        match List.assoc_opt s node.subs with
        | Some c -> c
        | None ->
          let c = { subs = []; here = None } in
          node.subs <- (s, c) :: node.subs;
          c
      in
      place child rest m
  in
  List.iter (fun m -> place root (String.split_on_char '.' m.name) m) (to_list t);
  let buf = Buffer.create 256 in
  let rec print indent node =
    List.iter
      (fun (seg, child) ->
        let pad = String.make indent ' ' in
        (match child.here with
        | Some m ->
          Buffer.add_string buf
            (Printf.sprintf "%s%-*s %s\n" pad (max 1 (24 - indent)) seg
               (describe ~timings m))
        | None -> Buffer.add_string buf (Printf.sprintf "%s%s\n" pad seg));
        print (indent + 2) child)
      (List.rev node.subs)
  in
  print 0 root;
  Buffer.contents buf

(* Side-by-side diff of two registries (`exom stats A B`): one row
   per metric in the union of names, with absolute and relative deltas
   on the deterministic scalar (counter/gauge value, timer count).
   Timer wall-clock sums get their own row unless [timings:false]. *)
let render_diff ?(timings = true) a b =
  let module S = Set.Make (String) in
  let names =
    S.elements
      (S.union
         (S.of_list (List.map (fun m -> m.name) (to_list a)))
         (S.of_list (List.map (fun m -> m.name) (to_list b))))
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-30s %14s %14s   %s\n" "metric" "old" "new" "delta");
  List.iter
    (fun name ->
      let ma = find a name and mb = find b name in
      let kind =
        match (ma, mb) with
        | Some m, _ | None, Some m -> m.kind
        | None, None -> Counter
      in
      let scalar = function
        | None -> 0
        | Some m -> (
          match m.kind with Counter | Gauge -> m.value | Timer -> m.count)
      in
      let ov = scalar ma and nv = scalar mb in
      let d = nv - ov in
      let delta =
        if d = 0 then "="
        else if ov = 0 then Printf.sprintf "%+d" d
        else
          Printf.sprintf "%+d (%+.1f%%)" d
            (100.0 *. float_of_int d /. float_of_int ov)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-30s %14d %14d   %s\n" name ov nv delta);
      if timings && kind = Timer then begin
        let secs = function None -> 0.0 | Some m -> m.seconds in
        let os = secs ma and ns = secs mb in
        let ds = ns -. os in
        let delta_s =
          if os > 0.0 then
            Printf.sprintf "%+.4fs (%+.1f%%)" ds (100.0 *. ds /. os)
          else Printf.sprintf "%+.4fs" ds
        in
        Buffer.add_string buf
          (Printf.sprintf "%-30s %13.4fs %13.4fs   %s\n" (name ^ ".seconds")
             os ns delta_s)
      end)
    names;
  Buffer.contents buf

(* {2 Drift}

   The typed successor of {!render_diff}: one finding per metric in the
   union of names, computed on the deterministic scalar only
   (counter/gauge value, timer count — wall-clock sums are never
   drift).  [direction_of] makes the tolerance direction-aware: a
   metric whose direction is [Up] only breaches when it grows (a cost,
   e.g. "verify.run"), [Down] only when it shrinks (a health figure,
   e.g. "store.hits"), [Both] on any movement beyond tolerance.  The
   relative delta of a metric absent on one side is [infinity] — a
   metric appearing or vanishing always breaches a finite tolerance. *)

type direction = Up | Down | Both

type drift_finding = {
  d_name : string;
  d_kind : kind;
  d_older : int;
  d_newer : int;
  d_delta : int;
  d_rel : float;
  d_direction : direction;
  d_breach : bool;
}

let drift ?(tolerance = 0.0) ?(direction_of = fun _ -> Both) a b =
  let module S = Set.Make (String) in
  let names =
    S.elements
      (S.union
         (S.of_list (List.map (fun m -> m.name) (to_list a)))
         (S.of_list (List.map (fun m -> m.name) (to_list b))))
  in
  List.filter_map
    (fun name ->
      let ma = find a name and mb = find b name in
      let kind =
        match (ma, mb) with
        | Some m, _ | None, Some m -> m.kind
        | None, None -> Counter
      in
      let scalar = function
        | None -> 0
        | Some m -> (
          match m.kind with Counter | Gauge -> m.value | Timer -> m.count)
      in
      let ov = scalar ma and nv = scalar mb in
      let d = nv - ov in
      if d = 0 then None
      else
        let rel =
          if ov <> 0 then float_of_int d /. float_of_int ov
          else if d > 0 then infinity
          else neg_infinity
        in
        let direction = direction_of name in
        let counted =
          match direction with Up -> d > 0 | Down -> d < 0 | Both -> true
        in
        Some
          {
            d_name = name;
            d_kind = kind;
            d_older = ov;
            d_newer = nv;
            d_delta = d;
            d_rel = rel;
            d_direction = direction;
            d_breach = counted && Float.abs rel > tolerance;
          })
    names

let has_drift findings = List.exists (fun f -> f.d_breach) findings

let render_drift findings =
  if findings = [] then "no metric drift\n"
  else begin
    let buf = Buffer.create 256 in
    List.iter
      (fun f ->
        let rel =
          if Float.is_integer f.d_rel || Float.abs f.d_rel = infinity then
            if Float.abs f.d_rel = infinity then "new/gone"
            else Printf.sprintf "%+.0f%%" (100.0 *. f.d_rel)
          else Printf.sprintf "%+.1f%%" (100.0 *. f.d_rel)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s %-30s %d -> %d (%+d, %s)\n"
             (if f.d_breach then "DRIFT" else "  ok ")
             f.d_name f.d_older f.d_newer f.d_delta rel))
      findings;
    Buffer.contents buf
  end
