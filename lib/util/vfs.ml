(* The checked I/O façade: one chokepoint for every persistence path.
   Real filesystem errors come back as typed [Error]s instead of
   unwinding the caller, and an optional seed-deterministic chaos plan
   injects storage faults at the same boundaries — so the degradation
   contracts of every consumer can be stormed and audited. *)

type op = Write | Fsync | Rename | Close | Mkdir | Read

type fault = Enospc | Eio | Short_write | Torn_rename

type error = {
  ve_op : op;
  ve_path : string;
  ve_fault : fault option;
  ve_msg : string;
}

exception Io_error of error

let op_to_string = function
  | Write -> "write"
  | Fsync -> "fsync"
  | Rename -> "rename"
  | Close -> "close"
  | Mkdir -> "mkdir"
  | Read -> "read"

let fault_to_string = function
  | Enospc -> "ENOSPC"
  | Eio -> "EIO"
  | Short_write -> "short write"
  | Torn_rename -> "torn rename"

let error_message e =
  Printf.sprintf "vfs %s(%s): %s" (op_to_string e.ve_op) e.ve_path e.ve_msg

(* {2 Chaos plans} *)

(* The same self-contained integer mixer as [Exom_interp.Chaos] (no
   [Random], whose global state would make seeds replay differently
   across processes): two rounds of the xorshift-multiply finalizer,
   masked to stay positive. *)
let mix x =
  let m = 0x45d9f3b in
  let x = x land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  x lxor (x lsr 16)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

module Io_chaos = struct
  type kind =
    | Seeded of { rate : int }
    | Targeted of { t_op : op; t_substr : string; t_after : int; t_fault : fault }

  type plan = {
    p_seed : int;
    p_kind : kind;
    p_budget : int;  (* max injected faults, process-wide *)
    p_per_path : int;  (* max injected faults per destination path *)
  }

  let of_seed ?(rate = 7) ?(budget = max_int) ?(per_path = 1) seed =
    if rate < 1 then invalid_arg "Io_chaos.of_seed: rate must be >= 1";
    if budget < 0 then invalid_arg "Io_chaos.of_seed: budget must be >= 0";
    if per_path < 1 then invalid_arg "Io_chaos.of_seed: per_path must be >= 1";
    { p_seed = seed; p_kind = Seeded { rate }; p_budget = budget;
      p_per_path = per_path }

  let targeted ~op ~path_substr ~after fault =
    if after < 1 then invalid_arg "Io_chaos.targeted: after must be >= 1";
    { p_seed = 0;
      p_kind = Targeted { t_op = op; t_substr = path_substr; t_after = after;
                          t_fault = fault };
      p_budget = 1;
      p_per_path = max_int }

  let describe p =
    match p.p_kind with
    | Seeded { rate } ->
      Printf.sprintf "io-chaos(seed=%d, rate=1/%d, per-path=%d%s)" p.p_seed
        rate p.p_per_path
        (if p.p_budget = max_int then ""
         else Printf.sprintf ", budget=%d" p.p_budget)
    | Targeted t ->
      Printf.sprintf "io-chaos(%s on %s #%d matching %S)"
        (fault_to_string t.t_fault) (op_to_string t.t_op) t.t_after t.t_substr
end

(* {2 Decision state}

   Mutex-protected: writes are coordinator-side by discipline, but this
   state is process-global, and a call from any other domain must not
   tear the plan's sequence or the tallies. *)

let lock = Mutex.create ()
let plan : Io_chaos.plan option ref = ref None
let seq = ref 0  (* chaos-eligible operations consulted since [arm] *)
let target_matches = ref 0
let plan_injected = ref 0  (* injections charged to the armed plan's budget *)
let path_hits : (string, int) Hashtbl.t = Hashtbl.create 16
let injected_n = ref 0
let real_n = ref 0
let acked_n = ref 0
let tally : (string, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm p =
  locked (fun () ->
      plan := Some p;
      seq := 0;
      target_matches := 0;
      plan_injected := 0;
      Hashtbl.reset path_hits)

let disarm () = locked (fun () -> plan := None)
let armed () = locked (fun () -> !plan <> None)

type counters = { c_injected : int; c_real : int; c_acked : int }

let counters () =
  locked (fun () ->
      { c_injected = !injected_n; c_real = !real_n; c_acked = !acked_n })

let reset_counters () =
  locked (fun () ->
      injected_n := 0;
      real_n := 0;
      acked_n := 0;
      Hashtbl.reset tally)

let ack e ~by =
  locked (fun () ->
      if e.ve_fault <> None then incr acked_n;
      Hashtbl.replace tally by
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally by)))

let ack_tally () =
  locked (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
      |> List.sort compare)

let op_code = function
  | Write -> 1
  | Fsync -> 2
  | Rename -> 3
  | Close -> 4
  | Mkdir -> 5
  | Read -> 6

(* Which fault kinds make sense at which boundary. *)
let kind_for o h =
  match o with
  | Write -> (match h mod 3 with 0 -> Enospc | 1 -> Eio | _ -> Short_write)
  | Fsync | Close | Mkdir -> if h mod 2 = 0 then Enospc else Eio
  | Rename -> if h mod 2 = 0 then Eio else Torn_rename
  | Read -> Eio

(* One chaos decision: [Some fault] when the armed plan fires for this
   (op, destination path), subject to the global budget and the
   per-path budget.  Reads never fault (outside the taxonomy). *)
let decide o path =
  if o = Read then None
  else
    locked (fun () ->
        match !plan with
        | None -> None
        | Some p ->
          if !plan_injected >= p.Io_chaos.p_budget then None
          else begin
            incr seq;
            let fire =
              match p.Io_chaos.p_kind with
              | Io_chaos.Targeted { t_op; t_substr; t_after; t_fault } ->
                if t_op = o && contains path t_substr then begin
                  incr target_matches;
                  if !target_matches = t_after then Some t_fault else None
                end
                else None
              | Io_chaos.Seeded { rate } ->
                let h =
                  mix
                    (p.Io_chaos.p_seed
                    lxor (!seq * 0x2545f491)
                    lxor (op_code o * 0x9e3779b))
                in
                if h mod rate = 0 then
                  Some (kind_for o (mix (h lxor p.Io_chaos.p_seed)))
                else None
            in
            match fire with
            | Some f
              when Option.value ~default:0 (Hashtbl.find_opt path_hits path)
                   < p.Io_chaos.p_per_path ->
              Hashtbl.replace path_hits path
                (1 + Option.value ~default:0 (Hashtbl.find_opt path_hits path));
              incr injected_n;
              incr plan_injected;
              Some f
            | Some _ | None -> None
          end)

let injected o path f =
  {
    ve_op = o;
    ve_path = path;
    ve_fault = Some f;
    ve_msg = Printf.sprintf "injected %s (io-chaos)" (fault_to_string f);
  }

let real o path msg =
  locked (fun () -> incr real_n);
  { ve_op = o; ve_path = path; ve_fault = None; ve_msg = msg }

(* Run [f], mapping real filesystem exceptions to [Error]. *)
let catching o path f =
  match f () with
  | v -> Ok v
  | exception Sys_error m -> Error (real o path m)
  | exception Unix.Unix_error (e, fn, _) ->
    Error (real o path (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  | exception End_of_file -> Error (real o path "unexpected end of file")

let probe o path = Option.map (fun f -> injected o path f) (decide o path)

let get_ok = function Ok () -> () | Error e -> raise (Io_error e)

(* {2 Checked operations} *)

let ensure_dir d =
  if Sys.file_exists d then Ok ()
  else
    match probe Mkdir d with
    | Some e -> Error e
    | None -> (
      match catching Mkdir d (fun () -> Sys.mkdir d 0o755) with
      | Ok () -> Ok ()
      | Error _ when Sys.file_exists d -> Ok ()  (* racing creator won *)
      | Error e -> Error e)

let read_file path =
  catching Read path (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let rename src dst =
  match probe Rename dst with
  | Some ({ ve_fault = Some Torn_rename; _ } as e) ->
    (* the rename itself happens; only its durability is in doubt *)
    (try Sys.rename src dst with Sys_error _ -> ());
    Error e
  | Some e -> Error e
  | None -> catching Rename dst (fun () -> Sys.rename src dst)

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let write_file_atomic ?(fsync = false) ?tmp path content =
  let tmp =
    match tmp with
    | Some t -> t
    | None -> Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  match decide Write path with
  | Some Short_write ->
    (* only a prefix reached the temp; the torn temp remains, like a
       real ENOSPC mid-write under a crashed cleanup *)
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
         (fun () ->
           output_string oc (String.sub content 0 (String.length content / 2)))
     with Sys_error _ -> ());
    Error (injected Write path Short_write)
  | Some f -> Error (injected Write path f)  (* ENOSPC/EIO: nothing written *)
  | None -> (
    match
      catching Write path (fun () ->
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc content;
              if fsync then begin
                flush oc;
                Unix.fsync (Unix.descr_of_out_channel oc)
              end))
    with
    | Error e ->
      remove_quietly tmp;
      Error e
    | Ok () -> (
      match probe Close path with
      | Some e -> Error e  (* the torn temp remains *)
      | None -> (
        match if fsync then probe Fsync path else None with
        | Some e ->
          remove_quietly tmp;
          Error e
        | None -> (
          match rename tmp path with
          | Ok () -> Ok ()
          | Error ({ ve_fault = Some Torn_rename; _ } as e) -> Error e
          | Error ({ ve_fault = Some _; _ } as e) -> Error e  (* temp remains *)
          | Error e ->
            remove_quietly tmp;
            Error e))))

let sync_channel path oc =
  match catching Fsync path (fun () -> flush oc) with
  | Error e -> Error e
  | Ok () -> (
    match probe Fsync path with
    | Some e -> Error e
    | None ->
      catching Fsync path (fun () ->
          Unix.fsync (Unix.descr_of_out_channel oc)))
