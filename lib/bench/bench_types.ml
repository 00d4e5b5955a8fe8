module Ast = Exom_lang.Ast

(* A seeded fault: an expression-level mutation of one line of the
   correct source.  Expression-level mutations preserve statement counts
   and therefore statement ids, which lets the faulty and corrected runs
   be aligned (the oracle) and lets the fault's line identify the
   root-cause statements. *)
type fault = {
  fid : string;  (* e.g. "V1-F9", mirroring the paper's error names *)
  description : string;
  pattern : string;  (* unique substring of the line to mutate *)
  replacement : string;
  failing_input : int list;
}

type t = {
  name : string;
  description : string;
  error_type : string;  (* Table 1's "Error type" column *)
  source : string;  (* the correct program *)
  faults : fault list;
  test_inputs : int list list;  (* passing runs: profiles + regression *)
}

(* Program input encoding for text-processing benchmarks: length-prefixed
   character codes. *)
let input_of_string s =
  String.length s :: List.init (String.length s) (fun i -> Char.code s.[i])

(* Integer input as typed on a command line: comma- or space-separated
   tokens, empty tokens skipped; the first non-integer token is the
   error. *)
let ints_of_string s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.fold_left
       (fun acc tok ->
         match (acc, int_of_string_opt tok) with
         | Ok ints, Some n -> Ok (n :: ints)
         | Ok _, None -> Error (Printf.sprintf "%S is not an integer" tok)
         | (Error _ as e), _ -> e)
       (Ok [])
  |> Result.map List.rev

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | Some _ | None -> Error (Printf.sprintf "%S is not a job count >= 0" s)

let fault_ref_of_string s =
  match String.index_opt s '/' with
  | Some i when i > 0 && i < String.length s - 1 ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | Some _ | None -> Error (Printf.sprintf "%S is not BENCH/FID" s)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then invalid_arg "find_substring: empty needle";
  let rec scan i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else scan (i + 1)
  in
  scan 0

(* 1-based line number of the fault's pattern in the correct source. *)
let fault_line bench fault =
  match find_substring bench.source fault.pattern with
  | None ->
    invalid_arg
      (Printf.sprintf "fault %s: pattern %S not found in %s" fault.fid
         fault.pattern bench.name)
  | Some pos ->
    let line = ref 1 in
    for i = 0 to pos - 1 do
      if bench.source.[i] = '\n' then incr line
    done;
    !line

let faulty_source bench fault =
  match find_substring bench.source fault.pattern with
  | None ->
    invalid_arg
      (Printf.sprintf "fault %s: pattern %S not found" fault.fid fault.pattern)
  | Some pos ->
    String.concat ""
      [ String.sub bench.source 0 pos;
        fault.replacement;
        String.sub bench.source
          (pos + String.length fault.pattern)
          (String.length bench.source - pos - String.length fault.pattern) ]

(* Root-cause statements: everything on the mutated line. *)
let root_sids bench fault prog =
  let line = fault_line bench fault in
  let sids = ref [] in
  Ast.iter_program
    (fun s ->
      if Exom_lang.Loc.line s.Ast.sloc = line then sids := s.Ast.sid :: !sids)
    prog;
  if !sids = [] then
    invalid_arg
      (Printf.sprintf "fault %s: no statement on line %d" fault.fid line);
  List.rev !sids

let loc_count bench =
  String.split_on_char '\n' bench.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let procedure_count prog = List.length prog.Ast.funcs
