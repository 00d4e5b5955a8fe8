(* The one reader of exom's versioned files: the schema/version check,
   the line walk of the JSONL framing with errors named by file line,
   the torn-tail salvage, and the field getters every codec's record
   parser uses.  Writers stay with their codecs. *)

type salvage = { torn_line : int; torn_byte : int }

let torn_message t =
  Printf.sprintf "torn record at line %d (byte %d) dropped" t.torn_line
    t.torn_byte

let ( let* ) = Result.bind

(* {2 Field getters} *)

let get what conv key j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed %s %S" what key)

let opt what conv key j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some _ -> Result.map Option.some (get what conv key j)

let str = get "string" Json.to_str
let num = get "number" Json.to_float
let int = get "integer" Json.to_int
let bool = get "boolean" (function Json.Bool b -> Some b | _ -> None)

let list key f j =
  let* items = get "array" Json.to_list key j in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> Result.bind (f x) (fun v -> go (v :: acc) rest)
  in
  go [] items

let ints =
  get "integer array" (fun v ->
      Option.bind (Json.to_list v) (fun l ->
          let ns = List.filter_map Json.to_int l in
          if List.compare_lengths ns l = 0 then Some ns else None))

let opt_int = opt "integer" Json.to_int
let opt_str = opt "string" Json.to_str

let str_pairs key j =
  match Json.member key j with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
      kvs
  | _ -> []

(* {2 Framing} *)

let check ~schema ~versions j =
  let* found = str "schema" j in
  if found <> schema then
    Error (Printf.sprintf "foreign schema %S (expected %S)" found schema)
  else
    let* version = int "version" j in
    if List.mem version versions then Ok ()
    else
      Error
        (Printf.sprintf "%s version %d (this reader understands %s)" schema
           version
           (String.concat ", " (List.map string_of_int versions)))

let blank =
  String.for_all (function ' ' | '\t' | '\r' | '\n' -> true | _ -> false)

let parse content =
  if blank content then Error "empty file" else Json.parse content

let document ~schema ~versions content =
  let* j = parse content in
  let* () = check ~schema ~versions j in
  Ok j

(* The first non-blank line at or after byte [pos], which is line
   [lineno]: its number, first byte, text and the byte after its
   newline. *)
let rec next_line content lineno pos =
  let len = String.length content in
  if pos >= len then None
  else
    let stop =
      Option.value ~default:len (String.index_from_opt content pos '\n')
    in
    let line = String.sub content pos (stop - pos) in
    if blank line then next_line content (lineno + 1) (stop + 1)
    else Some (lineno, pos, line, stop + 1)

let records ~schema ~versions ~salvage ~on_record content =
  let at lineno e = Printf.sprintf "line %d: %s" lineno e in
  match next_line content 1 0 with
  | None -> Error "empty file"
  | Some (lineno, _, header, next) ->
    let* () =
      Result.map_error (at lineno)
        (Result.bind (Json.parse header) (check ~schema ~versions))
    in
    let rec walk lineno pos =
      match next_line content lineno pos with
      | None -> Ok None
      | Some (lineno, start, line, next) -> (
        match Result.bind (Json.parse line) on_record with
        | Ok () -> walk (lineno + 1) next
        | Error _ when salvage && next_line content (lineno + 1) next = None ->
          Ok (Some { torn_line = lineno; torn_byte = start })
        | Error e -> Error (at lineno e))
    in
    walk (lineno + 1) next

let schema_of content =
  match next_line content 1 0 with
  | None -> None
  | Some (_, _, line, _) ->
    Result.to_option (Result.bind (Json.parse line) (str "schema"))
