(* The deterministic span spine: a canonical projection of a span tree
   that keeps only the fields two runs of the same localization must
   agree on — lane, name, category, args and child order — and drops
   every wall-clock field.  Two runs of the same session produce equal
   spines at any job count (lane ids and span ids are assigned on the
   coordinator in submission order, never by completion time), and the
   coordinator projection is additionally invariant under kill/resume:
   a resumed run replays recorded batches without worker lanes, but the
   lane-0 decision spine (session build, demand iterations, batch
   boundaries) is re-emitted identically.

   The spine is what `exom audit --spine` and the CI trace gate
   compare; {!diff} turns two spines into a typed edit script instead
   of a bare boolean, so a drift report names the spans that appeared,
   vanished, moved or reordered. *)

let schema_name = "exom.spine"
let schema_version = 1

(* Which lanes survive the projection.

   [All] keeps every lane: the right projection for comparing two
   uninterrupted runs (e.g. -j1 vs -j4), where worker lanes are
   deterministic because forks happen on the coordinator in submission
   order.

   [Coordinator] keeps lane 0 only: the replay-invariant projection.
   A resumed run consumes recorded batches without re-executing them,
   so worker-lane spans of replayed batches simply never exist — but
   the coordinator re-emits the decision spine (including one
   [verify.batch] span per replayed batch) exactly as the uninterrupted
   run did. *)
type lanes = All | Coordinator

let lanes_to_string = function All -> "all" | Coordinator -> "coordinator"

let lanes_of_string = function
  | "all" -> Some All
  | "coordinator" -> Some Coordinator
  | _ -> None

type node = {
  lane : int;
  name : string;
  cat : string;
  args : (string * string) list;  (* sorted by key *)
  children : node list;  (* ordinal order (span id order) *)
}

type t = { lanes : lanes; roots : node list }

(* {2 Projection} *)

(* Build the canonical tree from completed spans.  Spans arrive sorted
   by id (lane-major, start order within a lane); children keep that
   order, which is the submission order on the coordinator and the
   execution order within a worker lane — deterministic either way.  A
   span whose parent was filtered out (a worker span under
   [Coordinator]) is dropped with its subtree; a span whose parent is
   [-1] or missing from the kept set is a root. *)
let of_spans ?(lanes = All) spans =
  let keep (s : Span.t) =
    match lanes with All -> true | Coordinator -> s.Span.tid = 0
  in
  let spans =
    List.filter keep spans |> List.sort (fun a b -> compare a.Span.id b.Span.id)
  in
  let kept = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace kept s.Span.id ()) spans;
  let children_of = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.parent >= 0 && Hashtbl.mem kept s.Span.parent then
        Hashtbl.replace children_of s.Span.parent
          (s
          :: (match Hashtbl.find_opt children_of s.Span.parent with
             | Some l -> l
             | None -> []))
      else
        (* parent is -1 or was projected away: the span anchors a new
           root.  (Under [Coordinator] a lane-0 parent is always kept —
           the coordinator stack nests — so only genuine roots land
           here.) *)
        roots := s :: !roots)
    spans;
  let rec build (s : Span.t) =
    let kids =
      match Hashtbl.find_opt children_of s.Span.id with
      | Some l -> List.rev l
      | None -> []
    in
    {
      lane = s.Span.tid;
      name = s.Span.name;
      cat = s.Span.cat;
      args = List.sort (fun (a, _) (b, _) -> compare a b) s.Span.args;
      children = List.map build kids;
    }
  in
  { lanes; roots = List.rev_map build !roots }

let rec count_nodes n = 1 + List.fold_left (fun a c -> a + count_nodes c) 0 n.children

let size t = List.fold_left (fun a n -> a + count_nodes n) 0 t.roots

(* {2 Versioned codec} *)

let rec node_json n =
  Json.Obj
    [
      ("lane", Json.Num (float_of_int n.lane));
      ("name", Json.Str n.name);
      ("cat", Json.Str n.cat);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) n.args));
      ("children", Json.Arr (List.map node_json n.children));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Num (float_of_int schema_version));
      ("lanes", Json.Str (lanes_to_string t.lanes));
      ("roots", Json.Arr (List.map node_json t.roots));
    ]

let to_string t = Json.to_string (to_json t) ^ "\n"

let rec node_of_json j =
  let open Jsonl in
  let* lane = int "lane" j in
  let* name = str "name" j in
  let* cat = str "cat" j in
  let* children = list "children" node_of_json j in
  let args =
    List.sort (fun (a, _) (b, _) -> compare a b) (str_pairs "args" j)
  in
  Ok { lane; name; cat; args; children }

let of_string content =
  let open Jsonl in
  let* j = document ~schema:schema_name ~versions:[ schema_version ] content in
  let* lanes_s = str "lanes" j in
  match lanes_of_string lanes_s with
  | None -> Error (Printf.sprintf "unknown lanes %S" lanes_s)
  | Some lanes ->
    let* roots = list "roots" node_of_json j in
    Ok { lanes; roots }

(* {2 Human rendering} *)

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "spine (%s lanes, %d spans)\n" (lanes_to_string t.lanes)
       (size t));
  let rec pr indent n =
    let args =
      if n.args = [] then ""
      else
        Printf.sprintf " {%s}"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) n.args))
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s [lane %d, %s]%s\n"
         (String.make indent ' ')
         n.name n.lane n.cat args);
    List.iter (pr (indent + 2)) n.children
  in
  List.iter (pr 0) t.roots;
  Buffer.contents buf

(* {2 Diffing}

   Children of matched parents are keyed by (lane, name, occurrence):
   the k-th [verify.batch] under an iteration matches the k-th on the
   other side.  Within one matched level:

   - a key present only on the left  -> [Removed]
   - a key present only on the right -> [Added]
   - present on both at different ordinals -> [Reordered] (then the
     subtrees are still recursed into)
   - present on both with different args -> one [Args_changed] per
     differing key

   A final pass pairs up removals and additions whose whole subtrees
   are structurally identical and reclassifies each pair as a single
   [Moved] — a span that changed parents rather than two unrelated
   edits. *)

type edit =
  | Added of { path : string; lane : int; subtree : int }
  | Removed of { path : string; lane : int; subtree : int }
  | Moved of { from_path : string; to_path : string; lane : int }
  | Reordered of { path : string; older : int; newer : int }
  | Args_changed of { path : string; key : string; older : string; newer : string }

(* occurrence-qualified path segment: "verify.batch#3" is the fourth
   verify.batch among its siblings *)
let seg name occ = if occ = 0 then name else Printf.sprintf "%s#%d" name occ

(* occurrences are counted per name (not per lane) so a path segment
   "name#occ" identifies exactly one sibling — workers' same-named
   spans under one batch get distinct ordinals, and lane assignment is
   deterministic, so the numbering agrees across the runs compared *)
let child_keys nodes =
  let seen = Hashtbl.create 16 in
  List.mapi
    (fun i n ->
      let occ =
        match Hashtbl.find_opt seen n.name with Some o -> o | None -> 0
      in
      Hashtbl.replace seen n.name (occ + 1);
      ((n.lane, n.name, occ), i, n))
    nodes

let rec signature n =
  Printf.sprintf "%d|%s|%s|%s[%s]" n.lane n.name n.cat
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) n.args))
    (String.concat ";" (List.map signature n.children))

let diff a b =
  let edits = ref [] in
  let emit e = edits := e :: !edits in
  let rec walk path older newer =
    let ka = child_keys older and kb = child_keys newer in
    let find key l = List.find_opt (fun (k, _, _) -> k = key) l in
    List.iter
      (fun ((((lane, name, occ) as key), ia, na)) ->
        let p = path ^ "/" ^ seg name occ in
        match find key kb with
        | None -> emit (Removed { path = p; lane; subtree = count_nodes na })
        | Some (_, ib, nb) ->
          if ia <> ib then emit (Reordered { path = p; older = ia; newer = ib });
          let rec args_diff xs ys =
            match (xs, ys) with
            | [], [] -> ()
            | (k, v) :: xs', [] ->
              emit (Args_changed { path = p; key = k; older = v; newer = "-" });
              args_diff xs' []
            | [], (k, v) :: ys' ->
              emit (Args_changed { path = p; key = k; older = "-"; newer = v });
              args_diff [] ys'
            | (ka', va) :: xs', (kb', vb) :: ys' ->
              if ka' = kb' then begin
                if va <> vb then
                  emit (Args_changed { path = p; key = ka'; older = va; newer = vb });
                args_diff xs' ys'
              end
              else if ka' < kb' then begin
                emit (Args_changed { path = p; key = ka'; older = va; newer = "-" });
                args_diff xs' ys
              end
              else begin
                emit (Args_changed { path = p; key = kb'; older = "-"; newer = vb });
                args_diff xs ys'
              end
          in
          args_diff na.args nb.args;
          walk p na.children nb.children)
      ka;
    List.iter
      (fun (((lane, name, occ) as key), _, nb) ->
        match find key ka with
        | Some _ -> ()
        | None ->
          emit
            (Added
               { path = path ^ "/" ^ seg name occ; lane;
                 subtree = count_nodes nb }))
      kb
  in
  walk "" a.roots b.roots;
  let edits = List.rev !edits in
  (* reclassify (Removed, Added) pairs with identical subtrees as Moved *)
  let node_at spine path =
    let segs =
      String.split_on_char '/' path |> List.filter (fun s -> s <> "")
    in
    let parse s =
      match String.index_opt s '#' with
      | None -> (s, 0)
      | Some i ->
        ( String.sub s 0 i,
          int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
    in
    let rec go nodes = function
      | [] -> None
      | [ s ] ->
        let name, occ = parse s in
        List.find_map
          (fun ((_, n', o'), _, node) ->
            if n' = name && o' = occ then Some node else None)
          (child_keys nodes)
      | s :: rest ->
        let name, occ = parse s in
        Option.bind
          (List.find_map
             (fun ((_, n', o'), _, node) ->
               if n' = name && o' = occ then Some node else None)
             (child_keys nodes))
          (fun node -> go node.children rest)
    in
    go spine.roots segs
  in
  let removed_sigs =
    List.filter_map
      (function
        | Removed { path; _ } ->
          Option.map (fun n -> (path, signature n)) (node_at a path)
        | _ -> None)
      edits
  in
  let added_sigs =
    List.filter_map
      (function
        | Added { path; _ } ->
          Option.map (fun n -> (path, signature n)) (node_at b path)
        | _ -> None)
      edits
  in
  let moved = Hashtbl.create 8 in
  List.iter
    (fun (rp, rs) ->
      if not (Hashtbl.mem moved rp) then
        match
          List.find_opt
            (fun (ap, asig) ->
              asig = rs
              && not
                   (Hashtbl.fold
                      (fun _ ap' acc -> acc || ap' = ap)
                      moved false))
            added_sigs
        with
        | Some (ap, _) -> Hashtbl.replace moved rp ap
        | None -> ())
    removed_sigs;
  List.filter_map
    (function
      | Removed { path; lane; _ } as e -> (
        match Hashtbl.find_opt moved path with
        | Some to_path -> Some (Moved { from_path = path; to_path; lane })
        | None -> Some e)
      | Added { path; _ } as e ->
        if Hashtbl.fold (fun _ ap acc -> acc || ap = path) moved false then
          None
        else Some e
      | e -> Some e)
    edits

let equal a b = diff a b = []

let render_edit = function
  | Added { path; lane; subtree } ->
    Printf.sprintf "+ added     %s [lane %d]%s" path lane
      (if subtree > 1 then Printf.sprintf " (+%d nested spans)" (subtree - 1)
       else "")
  | Removed { path; lane; subtree } ->
    Printf.sprintf "- removed   %s [lane %d]%s" path lane
      (if subtree > 1 then Printf.sprintf " (%d nested spans with it)" (subtree - 1)
       else "")
  | Moved { from_path; to_path; lane } ->
    Printf.sprintf "> moved     %s -> %s [lane %d]" from_path to_path lane
  | Reordered { path; older; newer } ->
    Printf.sprintf "~ reordered %s (ordinal %d -> %d)" path older newer
  | Args_changed { path; key; older; newer } ->
    Printf.sprintf "! args      %s: %s %s -> %s" path key older newer

let render_edits = function
  | [] -> "spines are identical\n"
  | edits ->
    String.concat "\n" (List.map render_edit edits)
    ^ Printf.sprintf "\n%d edit%s\n" (List.length edits)
        (if List.length edits = 1 then "" else "s")
