(* A minimal JSON value type with a printer and a parser — just enough
   for the observability exporters and the `exom stats` reader, so the
   library stays dependency-free (the toolchain has no yojson).

   The printer emits compact single-line JSON; the parser accepts what
   the printer emits plus ordinary whitespace, which covers reading back
   our own trace/metric files and validating them in tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {2 Printing} *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers print without a fractional part so counters round-trip as
   the integer literals a human (and chrome://tracing) expects. *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.6f" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* {2 Parsing} *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let parse_literal c lit value =
  if
    c.pos + String.length lit <= String.length c.src
    && String.sub c.src c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else fail c (Printf.sprintf "expected %s" lit)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* decode to a raw byte for the BMP-ASCII range we emit; anything
           higher degrades to '?' (we never produce it ourselves) *)
        if c.pos + 4 >= String.length c.src then fail c "truncated \\u escape";
        let hex = String.sub c.src (c.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some n when n < 0x80 -> Buffer.add_char buf (Char.chr n)
        | Some _ -> Buffer.add_char buf '?'
        | None -> fail c "bad \\u escape");
        c.pos <- c.pos + 4
      | _ -> fail c "bad escape");
      advance c;
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch -> is_num_char ch | None -> false do
    advance c
  done;
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec loop () =
      skip_ws c;
      let k = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      fields := (k, v) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some '}' -> advance c
      | _ -> fail c "expected ',' or '}'"
    in
    loop ();
    Obj (List.rev !fields)
  end

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    Arr []
  end
  else begin
    let items = ref [] in
    let rec loop () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        loop ()
      | Some ']' -> advance c
      | _ -> fail c "expected ',' or ']'"
    in
    loop ();
    Arr (List.rev !items)
  end

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
