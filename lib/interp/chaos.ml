type fault =
  | Crash_at of int
  | Truncate_budget of int
  | Corrupt_value of int
  | Raise_at of int

exception Injected of string

type t = { seed : int; fault : fault }

(* A self-contained integer mixer (no [Random], whose global state would
   make seeds replay differently across processes): two rounds of the
   xorshift-multiply finalizer, masked to stay positive. *)
let mix x =
  let m = 0x45d9f3b in
  let x = x land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  x lxor (x lsr 16)

let of_seed ?(max_step = 4096) seed =
  if max_step < 1 then invalid_arg "Chaos.of_seed: max_step must be >= 1";
  let step = 1 + (mix (seed lxor 0x5bf03635) mod max_step) in
  (* five buckets, two of them raising: the other kinds keep the seeds
     (and steps) they have always drawn, so recorded seeds replay *)
  let fault =
    match mix seed mod 5 with
    | 0 -> Crash_at step
    | 1 -> Truncate_budget step
    | 2 -> Corrupt_value step
    | _ -> Raise_at step
  in
  { seed; fault }

let fault_to_string = function
  | Crash_at n -> Printf.sprintf "crash at step %d" n
  | Truncate_budget n -> Printf.sprintf "budget truncated to %d steps" n
  | Corrupt_value n -> Printf.sprintf "value corrupted at step %d" n
  | Raise_at n -> Printf.sprintf "exception injected at step %d" n

let to_string t = Printf.sprintf "%d:%s" t.seed (fault_to_string t.fault)

let pp ppf t =
  Format.fprintf ppf "chaos(seed=%d: %s)" t.seed (fault_to_string t.fault)

let budget_cap t budget =
  match t with
  | Some { fault = Truncate_budget n; _ } -> min budget n
  | _ -> budget

let action t ~step =
  match t with
  | Some { seed; fault = Crash_at n } when step = n ->
    `Crash (Printf.sprintf "chaos: injected crash (seed %d, step %d)" seed n)
  | Some { seed; fault = Raise_at n } when step = n ->
    raise
      (Injected
         (Printf.sprintf "chaos: injected exception (seed %d, step %d)" seed n))
  | _ -> `Continue

let corrupt t ~step v =
  match t with
  | Some { fault = Corrupt_value n; _ } when step >= n -> (
    match v with
    | Value.Vint k -> Some (Value.Vint (lnot k))
    | Value.Vbool b -> Some (Value.Vbool (not b))
    | Value.Varr _ | Value.Vunit -> None)
  | _ -> None
