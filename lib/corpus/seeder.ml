module Ast = Exom_lang.Ast
module Loc = Exom_lang.Loc
module Pretty = Exom_lang.Pretty
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Session = Exom_core.Session

type fault_class =
  | Stmt_delete
  | Guard_strengthen
  | Guard_weaken
  | Call_drop
  | Flag_init

let all_classes =
  [ Stmt_delete; Guard_strengthen; Guard_weaken; Call_drop; Flag_init ]

let class_to_string = function
  | Stmt_delete -> "stmt_delete"
  | Guard_strengthen -> "guard_strengthen"
  | Guard_weaken -> "guard_weaken"
  | Call_drop -> "call_drop"
  | Flag_init -> "flag_init"

let class_of_string = function
  | "stmt_delete" -> Some Stmt_delete
  | "guard_strengthen" -> Some Guard_strengthen
  | "guard_weaken" -> Some Guard_weaken
  | "call_drop" -> Some Call_drop
  | "flag_init" -> Some Flag_init
  | _ -> None

let e d = { Ast.edesc = d; eloc = Loc.dummy }
let conj c = e (Ast.Ebinop (Ast.And, c, e (Ast.Ebool false)))
let disj c = e (Ast.Ebinop (Ast.Or, c, e (Ast.Ebool true)))

(* Bottom-up statement rewriting over a whole program (globals too:
   Flag_init targets global initializers as well as locals). *)
let rec map_block f b = List.map (map_stmt f) b

and map_stmt f st =
  let st =
    match st.Ast.skind with
    | Ast.Sif (c, t, el) ->
      { st with Ast.skind = Ast.Sif (c, map_block f t, map_block f el) }
    | Ast.Swhile (c, b) -> { st with Ast.skind = Ast.Swhile (c, map_block f b) }
    | _ -> st
  in
  f st

let map_program f prog =
  {
    Ast.globals = map_block f prog.Ast.globals;
    funcs =
      List.map
        (fun fn -> { fn with Ast.fbody = map_block f fn.Ast.fbody })
        prog.Ast.funcs;
  }

let user_funcs prog =
  List.filter_map
    (fun fn -> if fn.Ast.fname = "main" then None else Some fn.Ast.fname)
    prog.Ast.funcs

let calls_user_func names block =
  List.exists
    (fun st ->
      match st.Ast.skind with
      | Ast.Sexpr { Ast.edesc = Ast.Ecall (f, _); _ } -> List.mem f names
      | _ -> false)
    block

(* Variables read by any predicate condition: Flag_init only targets
   declarations that (directly) feed a guard, which is what makes the
   mutation an omission candidate rather than a plain value error. *)
let predicate_vars prog =
  let vars = ref [] in
  Ast.iter_program
    (fun st ->
      match st.Ast.skind with
      | Ast.Sif (c, _, _) | Ast.Swhile (c, _) ->
        vars := Ast.expr_vars !vars c
      | _ -> ())
    prog;
  !vars

let sites prog =
  let names = user_funcs prog in
  let pvars = predicate_vars prog in
  let of_class cls =
    let acc = ref [] in
    Ast.iter_program
      (fun st ->
        let hit =
          match (cls, st.Ast.skind) with
          | Stmt_delete, Ast.Sassign (x, { Ast.edesc = rhs; _ }) ->
            rhs <> Ast.Evar x
          | Guard_strengthen, Ast.Sif (_, t, _) ->
            t <> [] && not (calls_user_func names t)
          | Guard_strengthen, Ast.Swhile (_, b) -> b <> []
          | Guard_weaken, Ast.Sif (_, _, el) -> el <> []
          | Call_drop, Ast.Sif (_, t, _) -> calls_user_func names t
          | Flag_init, Ast.Sdecl (Ast.Tint, x, Some { Ast.edesc = Ast.Eint _; _ })
            ->
            List.mem x pvars
          | _ -> false
        in
        if hit then acc := (cls, st.Ast.sid) :: !acc)
      prog;
    List.rev !acc
  in
  List.concat_map of_class all_classes

let apply prog cls sid =
  let changed = ref false in
  let f st =
    if st.Ast.sid <> sid then st
    else
      let mutated =
        match (cls, st.Ast.skind) with
        | Stmt_delete, Ast.Sassign (x, { Ast.edesc = rhs; _ })
          when rhs <> Ast.Evar x ->
          Some (Ast.Sassign (x, e (Ast.Evar x)))
        | Guard_strengthen, Ast.Sif (c, t, el) when t <> [] ->
          Some (Ast.Sif (conj c, t, el))
        | Guard_strengthen, Ast.Swhile (c, b) when b <> [] ->
          Some (Ast.Swhile (conj c, b))
        | Guard_weaken, Ast.Sif (c, t, el) when el <> [] ->
          Some (Ast.Sif (disj c, t, el))
        | Call_drop, Ast.Sif (c, t, el)
          when calls_user_func (user_funcs prog) t ->
          Some (Ast.Sif (conj c, t, el))
        | ( Flag_init,
            Ast.Sdecl (Ast.Tint, x, Some { Ast.edesc = Ast.Eint n; _ }) ) ->
          Some (Ast.Sdecl (Ast.Tint, x, Some (e (Ast.Eint (if n = 0 then 1 else 0)))))
        | _ -> None
      in
      match mutated with
      | Some skind ->
        changed := true;
        { st with Ast.skind }
      | None -> st
  in
  let prog' = map_program f prog in
  if !changed then
    Some (Typecheck.parse_and_check (Pretty.program_to_string prog'))
  else None

type seeded = {
  sd_class : fault_class;
  sd_root_line : int;
  sd_root_sids : int list;
  sd_correct : Ast.program;
  sd_faulty : Ast.program;
  sd_correct_src : string;
  sd_faulty_src : string;
  sd_input : int list;
}

(* Validation runs under a tight step budget: a mutation that unbounds
   a loop (e.g. Stmt_delete on a loop increment) spins forever and must
   be rejected cheaply — and the cutoff must be deterministic, because
   it decides which faults enter the corpus. *)
let validation_budget = 50_000

let validates ~correct ~faulty ~input =
  (* an untraced pre-check rejects a faulty run that crashes or spins
     to the budget before any trace is built for it; tracing never
     changes a run's outcome, so every decision stays the same *)
  (Interp.run ~tracing:false ~budget:validation_budget faulty ~input)
    .Interp.outcome = Ok ()
  &&
  let rc = Interp.run ~budget:validation_budget correct ~input in
  let rf = Interp.run ~budget:validation_budget faulty ~input in
  match (rc.Interp.outcome, rf.Interp.outcome) with
  | Ok (), Ok () -> (
    let expected = Interp.output_values rc in
    match Session.classify_outputs ~outputs:rf.Interp.outputs ~expected with
    | exception Session.No_failure -> false
    | _ -> (
      match (rc.Interp.trace, rf.Interp.trace) with
      | Some tc, Some tf ->
        (* true omission: some statement ran strictly fewer times *)
        let omitted = ref false in
        Hashtbl.iter
          (fun sid _ ->
            if Trace.occurrences tf sid < Trace.occurrences tc sid then
              omitted := true)
          (Ast.stmt_table correct);
        (* aligned anchor: the first divergent output position must be
           produced by the {e same} print statement in both runs, with
           a different value.  A purely positional shift (the faulty
           stream missing prints, so position k holds some unrelated
           print) anchors the search at an instance with no potential
           dependence on the root — unlocatable by construction, and
           exactly the manifestation the paper's technique does not
           claim.  Requiring a same-statement value divergence is the
           technique's applicability condition. *)
        let rec anchor_aligned fo co =
          match (fo, co) with
          | (fi, fv) :: frest, (ci, cv) :: crest ->
            if fv = cv then anchor_aligned frest crest
            else (Trace.get tf fi).Trace.sid = (Trace.get tc ci).Trace.sid
          | _ -> false
        in
        !omitted && anchor_aligned rf.Interp.outputs rc.Interp.outputs
      | _ -> false))
  | _ -> false

let rotate n xs =
  if xs = [] then []
  else
    let n = n mod List.length xs in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split n [] xs

let root_of faulty sid =
  let line = ref 0 and sids = ref [] in
  Ast.iter_program
    (fun st -> if st.Ast.sid = sid then line := Loc.line st.Ast.sloc)
    faulty;
  Ast.iter_program
    (fun st -> if Loc.line st.Ast.sloc = !line then sids := st.Ast.sid :: !sids)
    faulty;
  (!line, List.rev !sids)

let seed_fault ?(classes = all_classes) ~seed ~prog ~input () =
  let st = Random.State.make [| 0x0fa1; seed |] in
  let candidates =
    List.filter (fun (c, _) -> List.mem c classes) (sites prog)
  in
  if candidates = [] then None
  else begin
    (* alternates are drawn before the search loop so randomness
       consumption — hence determinism — is independent of which site
       validates first *)
    let rot = Random.State.int st (List.length candidates) in
    let alternates =
      List.init 4 (fun _ ->
          List.init
            (8 + Random.State.int st 9)
            (fun _ -> Random.State.int st 101 - 50))
    in
    let inputs = input :: alternates in
    let try_site (cls, sid) =
      match apply prog cls sid with
      | None -> None
      | Some faulty -> (
        match
          List.find_opt
            (fun input -> validates ~correct:prog ~faulty ~input)
            inputs
        with
        | None -> None
        | Some input ->
          let line, sids = root_of faulty sid in
          Some
            {
              sd_class = cls;
              sd_root_line = line;
              sd_root_sids = sids;
              sd_correct = prog;
              sd_faulty = faulty;
              sd_correct_src = Pretty.program_to_string prog;
              sd_faulty_src = Pretty.program_to_string faulty;
              sd_input = input;
            })
    in
    List.find_map try_site (rotate rot candidates)
  end
