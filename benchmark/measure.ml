(* Clocks, order statistics, and what the benchmark reads from outside
   the program: /proc counters and directory sizes. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A seeded permutation of [0, n): the order one pass sends its
   requests in. *)
let shuffle ~seed ~pass n =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The integer value of [key] in a "key: value" /proc file; 0 when
   absent. *)
let proc_field file key =
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let prefix = key ^ ":" in
    let n = String.length prefix in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > n && String.sub line 0 n = prefix ->
        let v = String.trim (String.sub line n (String.length line - n)) in
        let v = match String.index_opt v ' ' with Some i -> String.sub v 0 i | None -> v in
        Option.value ~default:0 (int_of_string_opt v)
      | _ -> scan ()
    in
    scan ()

(** Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () = float_of_int (proc_field "/proc/self/status" "VmHWM") /. 1024.0

(** Write syscalls and bytes this process has issued so far. *)
let io_writes () = (proc_field "/proc/self/io" "syscw", proc_field "/proc/self/io" "wchar")

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(** Regular files under [path] and their summed size. *)
let rec disk_usage path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> (0, 0)
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun (n, b) f ->
        let n', b' = disk_usage (Filename.concat path f) in
        (n + n', b + b'))
      (0, 0) (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (1, st_size)
  | _ -> (0, 0)

let read_file path = In_channel.with_open_bin path In_channel.input_all
