module Json = Exom_obs.Json
module Rank = Exom_rank.Rank

type bucket = {
  b_key : string;
  b_n : int;
  b_located : int;
  b_not_located : int;
  b_failed : int;
  b_mean_iterations : float;
  b_mean_verifications : float;
  b_mean_verify_queries : float;
  b_mean_store_hits : float;
}

type table = {
  mi_total : int;
  mi_located : int;
  mi_not_located : int;
  mi_failed : int;
  mi_by_class : bucket list;
  mi_by_family : bucket list;
  mi_by_size : bucket list;
  mi_by_density : bucket list;
}

let ran (o : Campaign.outcome) =
  o.Campaign.o_status = "located" || o.Campaign.o_status = "not_located"

let bucket_of key rows =
  let n = List.length rows in
  let ran_rows = List.filter ran rows in
  let mean f =
    match ran_rows with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 ran_rows
      /. float_of_int (List.length ran_rows)
  in
  {
    b_key = key;
    b_n = n;
    b_located = List.length (List.filter Campaign.located rows);
    b_not_located =
      List.length
        (List.filter (fun r -> r.Campaign.o_status = "not_located") rows);
    b_failed = List.length (List.filter (fun r -> not (ran r)) rows);
    b_mean_iterations = mean (fun r -> Campaign.count r "iterations");
    b_mean_verifications = mean (fun r -> Campaign.count r "verifications");
    b_mean_verify_queries = mean (fun r -> Campaign.count r "verify_queries");
    b_mean_store_hits =
      mean (fun r ->
          Campaign.count r "store_hits" + Campaign.count r "store_disk_hits");
  }

(* Group rows by a key function; buckets sort by key so the table is
   independent of row order beyond the per-bucket means. *)
let group key_of rows =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = key_of r in
      Hashtbl.replace tbl k (r :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    rows;
  Hashtbl.fold (fun k rs acc -> (k, List.rev rs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, rs) -> bucket_of k rs)

let mine rows =
  {
    mi_total = List.length rows;
    mi_located = List.length (List.filter Campaign.located rows);
    mi_not_located =
      List.length
        (List.filter (fun r -> r.Campaign.o_status = "not_located") rows);
    mi_failed = List.length (List.filter (fun r -> not (ran r)) rows);
    mi_by_class = group (fun r -> r.Campaign.o_class) rows;
    mi_by_family = group (fun r -> r.Campaign.o_family) rows;
    mi_by_size = group (fun r -> Rank.size_key r.Campaign.o_stmts) rows;
    mi_by_density =
      group
        (fun r ->
          Rank.density_key ~stmts:r.Campaign.o_stmts
            ~predicates:r.Campaign.o_predicates)
        rows;
  }

(* {2 Codec} *)

let num n = Json.Num (float_of_int n)

(* Means are rounded to 4 decimals before encoding so the document
   stays readable; the rounding is itself deterministic. *)
let fnum f = Json.Num (Float.round (f *. 10_000.0) /. 10_000.0)

let bucket_to_json b =
  Json.Obj
    [
      ("key", Json.Str b.b_key);
      ("n", num b.b_n);
      ("located", num b.b_located);
      ("not_located", num b.b_not_located);
      ("failed", num b.b_failed);
      ("mean_iterations", fnum b.b_mean_iterations);
      ("mean_verifications", fnum b.b_mean_verifications);
      ("mean_verify_queries", fnum b.b_mean_verify_queries);
      ("mean_store_hits", fnum b.b_mean_store_hits);
    ]

let table_to_string t =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str Rank.schema_name);
         ("version", num Rank.schema_version);
         ("total", num t.mi_total);
         ("located", num t.mi_located);
         ("not_located", num t.mi_not_located);
         ("failed", num t.mi_failed);
         ("by_class", Json.Arr (List.map bucket_to_json t.mi_by_class));
         ("by_family", Json.Arr (List.map bucket_to_json t.mi_by_family));
         ("by_size", Json.Arr (List.map bucket_to_json t.mi_by_size));
         ("by_density", Json.Arr (List.map bucket_to_json t.mi_by_density));
       ])
  ^ "\n"

let render t =
  let b = Buffer.create 512 in
  let rate n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d in
  Printf.bprintf b
    "corpus mine: %d rows, located %d (%.1f%%), NOT_ID %d (%.1f%%), failed %d\n"
    t.mi_total t.mi_located
    (rate t.mi_located t.mi_total)
    t.mi_not_located
    (rate t.mi_not_located t.mi_total)
    t.mi_failed;
  let section title buckets =
    Printf.bprintf b "%s:\n" title;
    Printf.bprintf b
      "  %-18s %5s %8s %7s %7s %8s %8s\n"
      "key" "n" "located" "NOT_ID" "failed" "iter" "verifs";
    List.iter
      (fun bk ->
        Printf.bprintf b "  %-18s %5d %7.1f%% %7d %7d %8.2f %8.2f\n" bk.b_key
          bk.b_n
          (rate bk.b_located bk.b_n)
          bk.b_not_located bk.b_failed bk.b_mean_iterations
          bk.b_mean_verifications)
      buckets
  in
  section "by fault class" t.mi_by_class;
  section "by family" t.mi_by_family;
  section "by program size" t.mi_by_size;
  section "by predicate density" t.mi_by_density;
  Buffer.contents b
