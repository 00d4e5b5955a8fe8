module Interp = Exom_interp.Interp

type verify_failure =
  | Run_crashed of string
  | Run_budget_exhausted
  | Breaker_open of int
  | Captured of string

let failure_to_string = function
  | Run_crashed msg -> "switched run crashed: " ^ msg
  | Run_budget_exhausted -> "switched run exhausted its step budget"
  | Breaker_open sid -> Printf.sprintf "circuit breaker open for predicate s%d" sid
  | Captured msg -> "unexpected exception contained: " ^ msg

(* A compact, parseable codec for the checkpoint events the ledger
   journals: [failure_to_string] is for humans and not injective enough
   to survive a round-trip. *)
let failure_code = function
  | Run_crashed msg -> "crashed:" ^ msg
  | Run_budget_exhausted -> "budget"
  | Breaker_open sid -> Printf.sprintf "breaker:%d" sid
  | Captured msg -> "captured:" ^ msg

let failure_of_code s =
  let tail p = String.sub s (String.length p) (String.length s - String.length p) in
  let has p =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if has "crashed:" then Some (Run_crashed (tail "crashed:"))
  else if s = "budget" then Some Run_budget_exhausted
  else if has "breaker:" then
    Option.map (fun n -> Breaker_open n) (int_of_string_opt (tail "breaker:"))
  else if has "captured:" then Some (Captured (tail "captured:"))
  else None

type stats = {
  mutable completed : int;
  mutable aborted : int;
  mutable breaker_trips : int;
  mutable breaker_skips : int;
  mutable captured : int;
}

let zero_stats () =
  { completed = 0; aborted = 0; breaker_trips = 0; breaker_skips = 0;
    captured = 0 }

let snapshot s =
  { completed = s.completed; aborted = s.aborted;
    breaker_trips = s.breaker_trips; breaker_skips = s.breaker_skips;
    captured = s.captured }

(* A worker-local accounting view: stats and journal entries land here
   while the shared breaker table (sid-serialized by the batch planner)
   stays on the guard.  [absorb] folds shards back in submission order,
   which keeps the merged journal — and therefore reports — identical
   regardless of the job count. *)
type shard = {
  sh_stats : stats;
  mutable sh_journal : (int * verify_failure) list;  (* newest first *)
}

let new_shard () = { sh_stats = zero_stats (); sh_journal = [] }
let shard_stats sh = sh.sh_stats

type breaker = { mutable consecutive : int; mutable opened : bool }

(* Consecutive aborts of one static predicate that open its breaker;
   [auto_tune] lowers it to [tuned_threshold] for convicted predicates. *)
let default_threshold = 8
let tuned_threshold = 2

type t = {
  breakers : (int, breaker) Hashtbl.t;
  convicted : (int, unit) Hashtbl.t;
      (* sids whose threshold [auto_tune] lowered, from the failure
         journal *)
  root : shard;  (* the session's merged accounting *)
}

let create () =
  { breakers = Hashtbl.create 16;
    convicted = Hashtbl.create 16; root = new_shard () }

let stats t = t.root.sh_stats
let failures t = List.rev t.root.sh_journal
let note sh sid failure = sh.sh_journal <- (sid, failure) :: sh.sh_journal

let absorb t sh =
  let a = t.root.sh_stats and b = sh.sh_stats in
  a.completed <- a.completed + b.completed;
  a.aborted <- a.aborted + b.aborted;
  a.breaker_trips <- a.breaker_trips + b.breaker_trips;
  a.breaker_skips <- a.breaker_skips + b.breaker_skips;
  a.captured <- a.captured + b.captured;
  (* both lists are newest-first; prepending keeps shard order *)
  t.root.sh_journal <- sh.sh_journal @ t.root.sh_journal

(* Tighten the breaker for the predicates the failure journal has
   already convicted.  The rule is deliberately narrow and
   deterministic: only the failures of a run count — [Run_crashed],
   [Run_budget_exhausted] and [Captured], each a pure function of
   (program, input, budget, chaos seed).  [Breaker_open] skips are the
   breaker's own artifacts and are excluded.  The derived thresholds —
   like the journal they are derived from — are therefore identical at
   any job count and across kill/resume (the journal is
   checkpoint-restored).

   Two deterministic failures of one sid mean a third identical attempt
   cannot succeed either: its breaker threshold drops to
   [tuned_threshold].  Call between batches, on the coordinator;
   recomputing from scratch keeps the table a pure function of the
   journal. *)
let auto_tune t =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (sid, f) ->
      match f with
      | Run_crashed _ | Run_budget_exhausted | Captured _ ->
        Hashtbl.replace counts sid
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts sid))
      | Breaker_open _ -> ())
    (List.rev t.root.sh_journal);
  Hashtbl.reset t.convicted;
  Hashtbl.iter
    (fun sid n -> if n >= 2 then Hashtbl.replace t.convicted sid ())
    counts

let threshold t sid =
  if Hashtbl.mem t.convicted sid then tuned_threshold else default_threshold

let breaker_for t sid =
  match Hashtbl.find_opt t.breakers sid with
  | Some b -> b
  | None ->
    let b = { consecutive = 0; opened = false } in
    Hashtbl.replace t.breakers sid b;
    b

(* Materialize breaker records before dispatching a batch: workers then
   only mutate their own sid's record, never the table structure. *)
let prepare t ~sids = List.iter (fun sid -> ignore (breaker_for t sid)) sids

let breaker_open t ~sid = (breaker_for t sid).opened

let note_captured_in sh ~sid ~msg =
  sh.sh_stats.captured <- sh.sh_stats.captured + 1;
  note sh sid (Captured msg)

let note_captured t ~sid ~msg = note_captured_in t.root ~sid ~msg

(* {2 Checkpoint support: export / restore the resumable state} *)

type breaker_state = { bk_sid : int; bk_consecutive : int; bk_opened : bool }

let breaker_states t =
  Hashtbl.fold
    (fun sid b acc ->
      { bk_sid = sid; bk_consecutive = b.consecutive; bk_opened = b.opened }
      :: acc)
    t.breakers []
  |> List.sort (fun a b -> compare a.bk_sid b.bk_sid)

let restore t ~stats:s ~failures:fs ~breakers =
  let a = t.root.sh_stats in
  a.completed <- s.completed;
  a.aborted <- s.aborted;
  a.breaker_trips <- s.breaker_trips;
  a.breaker_skips <- s.breaker_skips;
  a.captured <- s.captured;
  t.root.sh_journal <- List.rev fs;
  Hashtbl.reset t.breakers;
  List.iter
    (fun bk ->
      Hashtbl.replace t.breakers bk.bk_sid
        { consecutive = bk.bk_consecutive; opened = bk.bk_opened })
    breakers

(* One more consecutive abort of [sid]; open its breaker at the
   threshold (a completed run resets the streak — see [execute_in]). *)
let record_abort t sh sid =
  let b = breaker_for t sid in
  b.consecutive <- b.consecutive + 1;
  if (not b.opened) && b.consecutive >= threshold t sid then begin
    b.opened <- true;
    sh.sh_stats.breaker_trips <- sh.sh_stats.breaker_trips + 1
  end

type outcome =
  | Completed of Interp.run
  | Degraded of Interp.run * verify_failure
  | Skipped of verify_failure

let execute_in t sh ~sid ~run =
  let stats = sh.sh_stats in
  let fail f =
    record_abort t sh sid;
    note sh sid f;
    f
  in
  if breaker_open t ~sid then begin
    stats.breaker_skips <- stats.breaker_skips + 1;
    let f = Breaker_open sid in
    note sh sid f;
    Skipped f
  end
  else
    match run () with
    | exception exn ->
      stats.aborted <- stats.aborted + 1;
      stats.captured <- stats.captured + 1;
      Skipped (fail (Captured (Printexc.to_string exn)))
    | r -> (
      match r.Interp.outcome with
      | Ok () ->
        stats.completed <- stats.completed + 1;
        (breaker_for t sid).consecutive <- 0;
        Completed r
      | Error (Interp.Crashed msg) ->
        stats.aborted <- stats.aborted + 1;
        Degraded (r, fail (Run_crashed msg))
      | Error Interp.Budget_exhausted ->
        (* the paper's timer: final, like a crash *)
        stats.aborted <- stats.aborted + 1;
        Degraded (r, fail Run_budget_exhausted))

let execute t ~sid ~run = execute_in t t.root ~sid ~run
