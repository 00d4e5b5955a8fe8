
(* The prior enters the posterior as [alpha] pseudo-observations
   (Laplace-style smoothing).  A predicate's surplus instances are cut
   once it has [min_obs] observations and its score is below
   [cut_threshold]. *)
let prior = 0.5
let alpha = 2.0
let cut_threshold = 0.15
let min_obs = 6

(* 4-decimal rounding: every score that leaves this module (ordering
   keys, ledger events) goes through this, so comparisons are
   byte-stable. *)
let round4 f = Float.round (f *. 10_000.0) /. 10_000.0

(* Per-predicate evidence: strong/weak implicit-dependence verdicts and
   refutations observed so far this run. *)
type cell = { mutable strong : int; mutable id : int; mutable notid : int }

type t = (int, cell) Hashtbl.t

let create () : t = Hashtbl.create 32

let cell t sid =
  match Hashtbl.find_opt t sid with
  | Some c -> c
  | None ->
    let c = { strong = 0; id = 0; notid = 0 } in
    Hashtbl.replace t sid c;
    c

let observe t ~sid ~verdict =
  let c = cell t sid in
  match verdict with
  | `Strong_id -> c.strong <- c.strong + 1
  | `Id -> c.id <- c.id + 1
  | `Not_id -> c.notid <- c.notid + 1

let observations t ~sid =
  match Hashtbl.find_opt t sid with
  | None -> 0
  | Some c -> c.strong + c.id + c.notid

(* Smoothed posterior yield: strong verdicts weigh double (they carry
   Definition 4's evidence, not just Definition 2's), the prior enters
   as [alpha] pseudo-observations.  With no evidence this is exactly
   [prior], so untouched predicates tie and fall back to static order. *)
let score t ~sid =
  let strong, id, notid =
    match Hashtbl.find_opt t sid with
    | None -> (0, 0, 0)
    | Some c -> (c.strong, c.id, c.notid)
  in
  let pos = (2.0 *. float_of_int strong) +. float_of_int id in
  let neg = float_of_int notid in
  round4 ((pos +. (alpha *. prior)) /. (pos +. neg +. alpha))

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
      let cold = observations t ~sid < min_obs in
      let kept = first || cold || sc >= cut_threshold in
      if first then Hashtbl.replace kept_of_sid sid ();
      { d_idx = idx; d_sid = sid; d_score = sc; d_kept = kept })
    ordered
