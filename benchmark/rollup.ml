(* Lane-aware self-time rollup over one context's completed spans.

   A span's self time is its duration minus the durations of its
   children on the same lane.  Children on other lanes (the scheduler's
   worker forks, whose top-level spans parent to the coordinator's open
   [verify.batch]) ran concurrently with their parent, so they do not
   subtract from it: the coordinator waited for them the whole time.
   Consequently the coordinator lane's self times partition the wall
   time of its root spans exactly, and worker lanes report busy time
   instead. *)

module Span = Exom_obs.Span

type entry = { span : Span.t; self_us : float }

let entries (spans : Span.t list) =
  let lane_of = Hashtbl.create 64 and covered = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace lane_of s.Span.id s.Span.tid) spans;
  List.iter
    (fun (s : Span.t) ->
      match Hashtbl.find_opt lane_of s.Span.parent with
      | Some tid when tid = s.Span.tid ->
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.Span.parent) in
        Hashtbl.replace covered s.Span.parent (c +. s.Span.dur_us)
      | _ -> ())
    spans;
  List.map
    (fun (s : Span.t) ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.Span.id) in
      { span = s; self_us = Float.max 0.0 (s.Span.dur_us -. c) })
    spans

let coordinator e = e.span.Span.tid = 0

(* A root of its lane: no parent, a parent that never completed, or a
   parent on another lane (a worker's top-level span). *)
let lane_root ~ids e =
  match Hashtbl.find_opt ids e.span.Span.parent with
  | Some tid -> tid <> e.span.Span.tid
  | None -> true

let sum f es = List.fold_left (fun acc e -> acc +. f e) 0.0 es
let named names es = List.filter (fun e -> List.mem e.span.Span.name names) es

(** Coordinator-lane self time of the named spans, in microseconds. *)
let self_us es names =
  sum (fun e -> e.self_us) (List.filter coordinator (named names es))

(** Inclusive duration of the named spans on every lane. *)
let total_us es names = sum (fun e -> e.span.Span.dur_us) (named names es)

let ids_of es =
  let ids = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ids e.span.Span.id e.span.Span.tid) es;
  ids

(** Worker-lane busy time: the summed duration of each worker lane's
    top-level spans. *)
let worker_busy_us es =
  let ids = ids_of es in
  sum
    (fun e -> if (not (coordinator e)) && lane_root ~ids e then e.span.Span.dur_us else 0.0)
    es

(** The coordinator's roots: their summed duration is the traced wall
    time and their own self time is what no layer span covers. *)
let roots es =
  let ids = ids_of es in
  List.filter (fun e -> coordinator e && lane_root ~ids e) es

let wall_us es = sum (fun e -> e.span.Span.dur_us) (roots es)
let unattributed_us es = sum (fun e -> e.self_us) (roots es)
