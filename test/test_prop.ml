(* Property-based and differential tests over randomly generated MCL
   programs.

   Programs come from the corpus factory ({!Exom_corpus.Factory}, the
   library promotion of the generator this file used to embed): small
   well-typed programs whose loops are all counter-bounded, so they
   terminate well inside the interpreter's step budget.

   Properties:
   - pretty-print ∘ parse round-trips (fixpoint on the printed form);
   - the region tree is a well-formed projection of the trace;
   - aligning an execution against itself is the identity;
   - the tracing and plain interpreter modes agree on outputs, step
     counts and outcome (differential), on generated programs and on
     every program in examples/programs/. *)

module Pretty = Exom_lang.Pretty
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Region = Exom_align.Region
module Align = Exom_align.Align
module Factory = Exom_corpus.Factory
module Ast = Exom_lang.Ast
module Rank = Exom_rank.Rank

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

(* {2 Program generator} *)

let gen_program = Factory.gen_program

let print_case (prog, input) =
  Printf.sprintf "%s\n// input: [%s]"
    (Pretty.program_to_string prog)
    (String.concat "; " (List.map string_of_int input))

let arb = QCheck.make ~print:print_case gen_program

(* {2 Properties} *)

let prop_roundtrip =
  QCheck.Test.make ~name:"pretty-print . parse round-trips" ~count:80 arb
    (fun (prog, _) ->
      let src = Pretty.program_to_string prog in
      Pretty.program_to_string (Typecheck.parse_and_check src) = src)

let traced prog input = Interp.run ~tracing:true prog ~input

let prop_region_well_formed =
  QCheck.Test.make ~name:"region tree projects the trace" ~count:60 arb
    (fun (prog, input) ->
      let r = traced prog input in
      let tr = Option.get r.Interp.trace in
      let reg = Region.build tr in
      Region.length reg = Trace.length tr
      && List.for_all
           (fun idx ->
             let inst = Region.get reg idx in
             let p = inst.Trace.parent in
             inst.Trace.idx = idx && p < idx
             && Region.in_region reg ~u:idx ~r:Region.root
             && (p < 0
                || Region.in_region reg ~u:idx ~r:p
                   && Region.depth reg idx = Region.depth reg p + 1
                   && List.mem idx (Region.children reg p)))
           (List.init (Trace.length tr) Fun.id))

let sample_indices n =
  (* All indices on short traces, a spread otherwise: property checks
     stay linear-ish in trace length. *)
  if n <= 64 then List.init n Fun.id
  else List.init 64 (fun i -> i * n / 64)

let prop_self_alignment =
  QCheck.Test.make ~name:"self-alignment is the identity" ~count:60 arb
    (fun (prog, input) ->
      let r = traced prog input in
      let tr = Option.get r.Interp.trace in
      let reg = Region.build tr in
      let n = Trace.length tr in
      let indices = sample_indices n in
      let root_ok =
        List.for_all
          (fun u -> Align.match_root reg reg ~u = Align.Found u)
          indices
      in
      (* From any predicate instance, an execution still aligns with
         itself everywhere. *)
      let pred =
        List.find_opt (fun u -> Trace.is_predicate (Region.get reg u)) indices
      in
      let from_ok =
        match pred with
        | None -> true
        | Some p ->
          List.for_all
            (fun u -> Align.match_from reg reg ~p ~u = Align.Found u)
            indices
      in
      root_ok && from_ok)

let modes_agree prog input =
  let a = Interp.run ~tracing:true prog ~input in
  let b = Interp.run ~tracing:false prog ~input in
  Interp.output_values a = Interp.output_values b
  && a.Interp.steps = b.Interp.steps
  && a.Interp.outcome = b.Interp.outcome
  && a.Interp.switch_fired = b.Interp.switch_fired

let prop_differential =
  QCheck.Test.make ~name:"tracing and plain modes agree" ~count:80 arb
    (fun (prog, input) -> modes_agree prog input)

(* {2 Differential check over the example corpus} *)

(* Under `dune runtest` the cwd is the sandboxed test directory and
   the glob_files dep places the corpus at ../examples/programs; under
   `dune exec test/test_prop.exe` the cwd is the project root.  Resolve
   relative to the executable first, then the two cwd layouts. *)
let examples_dir =
  let rel = Filename.concat "examples" "programs" in
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat ".." rel);
      Filename.concat ".." rel;
      rel;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> rel

let test_examples_differential () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  Alcotest.(check bool) "example corpus present" true (files <> []);
  List.iter
    (fun file ->
      let path = Filename.concat examples_dir file in
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let prog = Typecheck.parse_and_check src in
      (* A fixed input long enough for every example; extra ints are
         ignored, and both modes crash identically on exhaustion. *)
      let input = [ 6; 3; 9; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7 ] in
      Alcotest.(check bool)
        (file ^ ": modes agree")
        true (modes_agree prog input);
      Alcotest.(check bool)
        (file ^ ": short input agrees")
        true
        (modes_agree prog [ 2 ]))
    files

(* Ranking is a pure function of the evidence over a program's
   predicates (the features in the name): two scorers fed the same
   verdict evidence over a Factory program's predicates — in any
   order, since per-predicate cells are independent counters — produce
   byte-identical scores and plans.  This is the unit-level face of
   the end-to-end claim that the ranked verification order is
   invariant across -j and warm/cold stores (test_rank). *)
let prop_ranking_pure =
  QCheck.Test.make ~name:"ranking is pure in (features, evidence)" ~count:60
    arb (fun (prog, input) ->
      let preds = ref [] in
      Ast.iter_program
        (fun s -> if Ast.is_predicate s then preds := s.Ast.sid :: !preds)
        prog;
      let sids = match !preds with [] -> [ 1; 2; 3 ] | l -> List.rev l in
      (* a deterministic evidence stream derived from the program *)
      let evidence =
        List.concat_map
          (fun sid ->
            match (sid + List.length input) mod 3 with
            | 0 -> [ (sid, `Strong_id) ]
            | 1 -> [ (sid, `Id); (sid, `Not_id) ]
            | _ -> [ (sid, `Not_id); (sid, `Not_id) ])
          sids
      in
      let mk stream =
        let t = Rank.create () in
        List.iter (fun (sid, v) -> Rank.observe t ~sid ~verdict:v) stream;
        t
      in
      let candidates = List.mapi (fun i sid -> (i, sid)) (sids @ sids) in
      let t1 = mk evidence in
      let t2 = mk evidence in
      let t3 = mk (List.rev evidence) in
      Rank.plan t1 candidates = Rank.plan t2 candidates
      && Rank.plan t1 candidates = Rank.plan t3 candidates
      && List.for_all
           (fun (_, sid) -> Rank.score t1 ~sid = Rank.score t3 ~sid)
           candidates)

let () =
  let rand = Random.State.make [| seed |] in
  let q t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "prop"
    [
      ( "generated",
        [
          q prop_roundtrip;
          q prop_region_well_formed;
          q prop_self_alignment;
          q prop_differential;
          q prop_ranking_pure;
        ] );
      ("examples", [ Alcotest.test_case "differential" `Quick test_examples_differential ]);
    ]
