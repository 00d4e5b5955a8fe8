module Json = Exom_obs.Json

(* The mined prior.  Only the bucket statistics the prior consumes are
   kept: (bucket key -> located rate) for the size and density
   sections.  The schema and the bucket keys are defined here, once:
   the miner (Exom_corpus.Mine) writes its tables with them. *)

let schema_name = "exom.corpus.mine"
let schema_version = 1

type model = {
  m_by_size : (string * float) list;
  m_by_density : (string * float) list;
}

let ( let* ) = Result.bind

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> Ok (int_of_float f)
  | None -> Error (Printf.sprintf "missing numeric field %S" name)

(* One bucket -> (key, located rate); an empty bucket contributes no
   rate (filtered by the caller). *)
let bucket_rate j =
  let* key = str_field "key" j in
  let* n = int_field "n" j in
  let* located = int_field "located" j in
  if n < 0 || located < 0 || located > n then
    Error (Printf.sprintf "bucket %S: inconsistent counts" key)
  else if n = 0 then Ok None
  else Ok (Some (key, float_of_int located /. float_of_int n))

let buckets_field name j =
  match Json.member name j with
  | Some (Json.Arr l) ->
    List.fold_left
      (fun acc bj ->
        let* acc = acc in
        let* b = bucket_rate bj in
        Ok (match b with None -> acc | Some b -> b :: acc))
      (Ok []) l
    |> Result.map List.rev
  | _ -> Error (Printf.sprintf "missing bucket array %S" name)

let model_of_string s =
  let* j = Json.parse s in
  let* schema = str_field "schema" j in
  let* version = int_field "version" j in
  if schema <> schema_name then
    Error (Printf.sprintf "foreign schema %S (expected %S)" schema schema_name)
  else if version <> schema_version then
    Error
      (Printf.sprintf "unsupported %s version %d (this reader understands %d)"
         schema_name version schema_version)
  else
    let* m_by_size = buckets_field "by_size" j in
    let* m_by_density = buckets_field "by_density" j in
    Ok { m_by_size; m_by_density }

let load_model path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | content -> model_of_string content

type config = {
  alpha : float;
  base_prior : float;
  cut_threshold : float;
  min_obs : int;
  model : model option;
}

let default_config =
  { alpha = 2.0; base_prior = 0.5; cut_threshold = 0.15; min_obs = 6;
    model = None }

(* 4-decimal rounding: every score that leaves this module (ordering
   keys, ledger events) goes through this, so comparisons are
   byte-stable. *)
let round4 f = Float.round (f *. 10_000.0) /. 10_000.0

let size_key stmts =
  if stmts <= 10 then "stmts<=10"
  else if stmts <= 20 then "stmts11-20"
  else if stmts <= 40 then "stmts21-40"
  else "stmts>40"

let density_key ~stmts ~predicates =
  if stmts = 0 then "density0-10"
  else
    let d = float_of_int predicates /. float_of_int stmts in
    if d < 0.10 then "density0-10"
    else if d < 0.20 then "density10-20"
    else if d < 0.30 then "density20-30"
    else "density30+"

(* Per-predicate evidence: strong/weak implicit-dependence verdicts and
   refutations observed so far this run. *)
type cell = { mutable strong : int; mutable id : int; mutable notid : int }

type t = {
  cfg : config;
  prior : float;
  cells : (int, cell) Hashtbl.t;
}

let bucket_prior model ~stmts ~predicates =
  let rates =
    List.filter_map Fun.id
      [
        List.assoc_opt (size_key stmts) model.m_by_size;
        List.assoc_opt (density_key ~stmts ~predicates) model.m_by_density;
      ]
  in
  match rates with
  | [] -> None
  | _ ->
    let mean = List.fold_left ( +. ) 0.0 rates /. float_of_int (List.length rates) in
    (* clamped so a degenerate table (all-located or none-located
       buckets) can neither pin every score to 1 nor cut everything *)
    Some (Float.min 0.95 (Float.max 0.05 mean))

let create ?stmts ?predicates cfg =
  let prior =
    match (cfg.model, stmts) with
    | Some m, Some st ->
      let preds = Option.value ~default:0 predicates in
      Option.value ~default:cfg.base_prior
        (bucket_prior m ~stmts:st ~predicates:preds)
    | _ -> cfg.base_prior
  in
  { cfg; prior = round4 prior; cells = Hashtbl.create 32 }

let prior t = t.prior

let cell t sid =
  match Hashtbl.find_opt t.cells sid with
  | Some c -> c
  | None ->
    let c = { strong = 0; id = 0; notid = 0 } in
    Hashtbl.replace t.cells sid c;
    c

let observe t ~sid ~verdict =
  let c = cell t sid in
  match verdict with
  | `Strong_id -> c.strong <- c.strong + 1
  | `Id -> c.id <- c.id + 1
  | `Not_id -> c.notid <- c.notid + 1

let observations t ~sid =
  match Hashtbl.find_opt t.cells sid with
  | None -> 0
  | Some c -> c.strong + c.id + c.notid

(* Smoothed posterior yield: strong verdicts weigh double (they carry
   Definition 4's evidence, not just Definition 2's), the prior enters
   as [alpha] pseudo-observations.  With no evidence this is exactly
   [prior], so untouched predicates tie and fall back to static order. *)
let score t ~sid =
  let strong, id, notid =
    match Hashtbl.find_opt t.cells sid with
    | None -> (0, 0, 0)
    | Some c -> (c.strong, c.id, c.notid)
  in
  let pos = (2.0 *. float_of_int strong) +. float_of_int id in
  let neg = float_of_int notid in
  round4 ((pos +. (t.cfg.alpha *. t.prior)) /. (pos +. neg +. t.cfg.alpha))

type decision = { d_idx : int; d_sid : int; d_score : float; d_kept : bool }

let plan t candidates =
  let scored =
    List.map (fun (idx, sid) -> (idx, sid, score t ~sid)) candidates
  in
  (* descending score; ties in ascending instance idx = the static
     order (scores are already rounded, so this comparison is the one
     the ledger records) *)
  let ordered =
    List.stable_sort
      (fun (ia, _, sa) (ib, _, sb) ->
        match compare sb sa with 0 -> compare ia ib | c -> c)
      scored
  in
  let kept_of_sid = Hashtbl.create 8 in
  List.map
    (fun (idx, sid, sc) ->
      let first = not (Hashtbl.mem kept_of_sid sid) in
      let cold = observations t ~sid < t.cfg.min_obs in
      let kept = first || cold || sc >= t.cfg.cut_threshold in
      if first then Hashtbl.replace kept_of_sid sid ();
      { d_idx = idx; d_sid = sid; d_score = sc; d_kept = kept })
    ordered
