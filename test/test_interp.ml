(* Tests for the instrumented interpreter: semantics, tracing, dynamic
   dependences, predicate switching, budgets. *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Cell = Exom_interp.Cell
module Chaos = Exom_interp.Chaos
module Interp = Exom_interp.Interp
module Profile = Exom_interp.Profile
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value

let compile src = Typecheck.parse_and_check src

let run ?switch ?budget ?tracing src ~input =
  Interp.run ?switch ?budget ?tracing (compile src) ~input

let outputs ?switch ?budget ?tracing src ~input =
  Interp.output_values (run ?switch ?budget ?tracing src ~input)

let check_outputs name expected got =
  Alcotest.(check (list int)) name expected got

let trace_of run =
  match run.Interp.trace with
  | Some t -> t
  | None -> Alcotest.fail "expected a trace"

(* Find the sid of the statement on a given source line (1-based). *)
let sid_on_line prog line =
  let found = ref None in
  Ast.iter_program
    (fun s ->
      if Exom_lang.Loc.line s.Ast.sloc = line && !found = None then
        found := Some s.Ast.sid)
    prog;
  match !found with
  | Some sid -> sid
  | None -> Alcotest.failf "no statement on line %d" line

(* Basic semantics *)

let test_arith () =
  check_outputs "arith"
    [ 7; 1; 6; 2; 1; -5 ]
    (outputs
       "void main() { print(3 + 4); print(7 % 2); print(2 * 3); print(5 / \
        2); print(7 - 2 * 3); print(-5); }"
       ~input:[])

let test_comparisons_and_logic () =
  check_outputs "logic"
    [ 1; 0; 1; 1 ]
    (outputs
       {|
void main() {
  int t = 0;
  if (1 < 2 && 2 <= 2) { t = 1; } else { t = 0; }
  print(t);
  if (3 > 3 || false) { t = 1; } else { t = 0; }
  print(t);
  if (!(1 == 2)) { t = 1; } else { t = 0; }
  print(t);
  if (1 != 2) { t = 1; } else { t = 0; }
  print(t);
}
|}
       ~input:[])

let test_short_circuit () =
  (* The right operand of && must not run when the left is false:
     division by zero would crash. *)
  let r =
    run
      {|
void main() {
  int z = 0;
  if (z != 0 && 10 / z > 1) { print(1); } else { print(0); }
}
|}
      ~input:[]
  in
  Alcotest.(check bool) "no crash" true (r.Interp.outcome = Ok ());
  check_outputs "short circuit" [ 0 ] (Interp.output_values r)

let test_while_loop () =
  check_outputs "sum 1..5" [ 15 ]
    (outputs
       {|
void main() {
  int s = 0;
  int i = 1;
  while (i <= 5) {
    s = s + i;
    i = i + 1;
  }
  print(s);
}
|}
       ~input:[])

let test_break_continue () =
  check_outputs "skip evens, stop at 7"
    [ 1; 3; 5; 7 ]
    (outputs
       {|
void main() {
  int i = 0;
  while (true) {
    i = i + 1;
    if (i % 2 == 0) { continue; }
    print(i);
    if (i >= 7) { break; }
  }
}
|}
       ~input:[])

let test_input () =
  check_outputs "echo sum" [ 30 ]
    (outputs "void main() { int a = input(); int b = input(); print(a + b); }"
       ~input:[ 10; 20 ])

let test_arrays () =
  check_outputs "array ops"
    [ 0; 42; 5 ]
    (outputs
       {|
void main() {
  int[] a = new_array(5);
  print(a[3]);
  a[3] = 42;
  print(a[3]);
  print(len(a));
}
|}
       ~input:[])

let test_array_aliasing () =
  check_outputs "aliased write" [ 9 ]
    (outputs
       {|
void main() {
  int[] a = new_array(2);
  int[] b = a;
  b[0] = 9;
  print(a[0]);
}
|}
       ~input:[])

let test_functions_and_recursion () =
  check_outputs "fib" [ 55 ]
    (outputs
       {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(10)); }
|}
       ~input:[])

let test_array_by_reference () =
  check_outputs "callee writes caller array" [ 7 ]
    (outputs
       {|
void set(int[] xs, int i, int v) { xs[i] = v; }
void main() {
  int[] a = new_array(3);
  set(a, 1, 7);
  print(a[1]);
}
|}
       ~input:[])

let test_globals () =
  check_outputs "global updated by callee" [ 1; 2 ]
    (outputs
       {|
int counter = 0;
void tick() { counter = counter + 1; }
void main() { tick(); print(counter); tick(); print(counter); }
|}
       ~input:[])

(* Crashes and budgets *)

let expect_crash name src input =
  let r = run src ~input in
  match r.Interp.outcome with
  | Error (Interp.Crashed _) -> ()
  | Ok () -> Alcotest.failf "%s: expected a crash" name
  | Error Interp.Budget_exhausted -> Alcotest.failf "%s: unexpected budget abort" name

let test_crashes () =
  expect_crash "div by zero" "void main() { int z = 0; print(1 / z); }" [];
  expect_crash "mod by zero" "void main() { int z = 0; print(1 % z); }" [];
  expect_crash "oob read"
    "void main() { int[] a = new_array(2); print(a[5]); }" [];
  expect_crash "oob write"
    "void main() { int[] a = new_array(2); a[-1] = 0; }" [];
  expect_crash "null array" "void main() { int[] a; print(a[0]); }" [];
  expect_crash "input exhausted" "void main() { print(input()); }" [];
  expect_crash "negative array size"
    "void main() { int[] a = new_array(0 - 3); }" []

let test_budget () =
  let r = run "void main() { while (true) { } }" ~budget:1000 ~input:[] in
  (match r.Interp.outcome with
  | Error Interp.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected budget exhaustion");
  Alcotest.(check bool) "steps within budget+1" true (r.Interp.steps <= 1001)

(* Tracing *)

let traced_src =
  {|
void main() {
  int x = 2;
  int y = x + 3;
  print(y);
}
|}

let test_trace_structure () =
  let r = run traced_src ~input:[] in
  let t = trace_of r in
  Alcotest.(check int) "three instances" 3 (Trace.length t);
  let x_inst = Trace.get t 0 in
  let y_inst = Trace.get t 1 in
  let p_inst = Trace.get t 2 in
  Alcotest.(check bool) "x defines" true
    (List.exists (fun (c, _) -> Cell.static_var c = Some "x") x_inst.Trace.defs);
  (* y's use of x must point at x's instance *)
  (match y_inst.Trace.uses with
  | [ (c, def, v) ] ->
    Alcotest.(check bool) "use of x" true (Cell.static_var c = Some "x");
    Alcotest.(check int) "def idx" 0 def;
    Alcotest.(check bool) "value 2" true (Value.equal v (Value.Vint 2))
  | _ -> Alcotest.fail "expected exactly one use");
  (match p_inst.Trace.kind with
  | Trace.Koutput -> ()
  | _ -> Alcotest.fail "print should be an output instance");
  Alcotest.(check bool) "output value" true
    (Value.equal p_inst.Trace.value (Value.Vint 5))

let test_control_parents () =
  let src =
    {|
void main() {
  int x = 1;
  if (x == 1) {
    print(10);
  }
  while (x < 3) {
    x = x + 1;
  }
  print(x);
}
|}
  in
  let r = run src ~input:[] in
  let t = trace_of r in
  (* instance layout: 0 decl, 1 if-pred, 2 print10, 3 while#1, 4 x=x+1,
     5 while#2, 6 x=x+1, 7 while#3, 8 print(x) *)
  Alcotest.(check int) "trace length" 9 (Trace.length t);
  let parent i = (Trace.get t i).Trace.parent in
  Alcotest.(check int) "print10 under if" 1 (parent 2);
  Alcotest.(check int) "while#1 at top" (-1) (parent 3);
  Alcotest.(check int) "body1 under while#1" 3 (parent 4);
  Alcotest.(check int) "while#2 under while#1" 3 (parent 5);
  Alcotest.(check int) "body2 under while#2" 5 (parent 6);
  Alcotest.(check int) "while#3 under while#2" 5 (parent 7);
  Alcotest.(check int) "final print at top" (-1) (parent 8)

let test_callee_parents () =
  let src =
    {|
int double(int n) { return n + n; }
void main() {
  int y = double(4);
  print(y);
}
|}
  in
  let r = run src ~input:[] in
  let t = trace_of r in
  (* 0: y decl (the call site), 1: return inside double, 2: print *)
  Alcotest.(check int) "length" 3 (Trace.length t);
  let ret = Trace.get t 1 in
  Alcotest.(check int) "return nests under call site" 0 ret.Trace.parent;
  (match ret.Trace.kind with
  | Trace.Kreturn -> ()
  | _ -> Alcotest.fail "expected return instance");
  (* y's uses include the return cell defined at instance 1 *)
  let y = Trace.get t 0 in
  Alcotest.(check bool) "use of ret" true
    (List.exists
       (fun (c, d, _) -> match c with Cell.Ret _ -> d = 1 | _ -> false)
       y.Trace.uses)

let test_elem_def_use () =
  let src =
    {|
void main() {
  int[] a = new_array(3);
  a[1] = 5;
  print(a[1]);
  print(a[2]);
}
|}
  in
  let r = run src ~input:[] in
  let t = trace_of r in
  (* 0 alloc, 1 store, 2 print a[1], 3 print a[2] *)
  let p1 = Trace.get t 2 in
  Alcotest.(check bool) "a[1] read points at store" true
    (List.exists
       (fun (c, d, _) -> match c with Cell.Elem (_, 1) -> d = 1 | _ -> false)
       p1.Trace.uses);
  let p2 = Trace.get t 3 in
  Alcotest.(check bool) "untouched element points at allocation" true
    (List.exists
       (fun (c, d, _) -> match c with Cell.Elem (_, 2) -> d = 0 | _ -> false)
       p2.Trace.uses)

let test_occurrences () =
  let src =
    {|
void main() {
  int i = 0;
  while (i < 4) {
    i = i + 1;
  }
  print(i);
}
|}
  in
  let r = run src ~input:[] in
  let t = trace_of r in
  let prog = compile src in
  let while_sid = sid_on_line prog 4 in
  Alcotest.(check int) "5 predicate instances" 5 (Trace.occurrences t while_sid);
  match Trace.find_instance t ~sid:while_sid ~occ:5 with
  | Some inst -> (
    match inst.Trace.kind with
    | Trace.Kpredicate false -> ()
    | _ -> Alcotest.fail "last loop predicate should be false")
  | None -> Alcotest.fail "missing instance"

(* Predicate switching *)

let switch_src =
  {|
void main() {
  int flag = 0;
  int x = 10;
  if (flag == 1) {
    x = 99;
  }
  print(x);
}
|}

let test_switching_changes_output () =
  let prog = compile switch_src in
  let if_sid = sid_on_line prog 5 in
  check_outputs "unswitched" [ 10 ] (outputs switch_src ~input:[]);
  let r =
    Interp.run prog
      ~switch:{ Interp.switch_sid = if_sid; switch_occ = 1 }
      ~input:[]
  in
  Alcotest.(check bool) "switch fired" true r.Interp.switch_fired;
  check_outputs "switched takes branch" [ 99 ] (Interp.output_values r)

let test_switch_specific_occurrence () =
  let src =
    {|
void main() {
  int i = 0;
  while (i < 3) {
    if (i == 99) {
      print(1000 + i);
    }
    i = i + 1;
  }
}
|}
  in
  let prog = compile src in
  let if_sid = sid_on_line prog 5 in
  (* Only the 2nd instance of the if is switched: exactly one output. *)
  let r =
    Interp.run prog
      ~switch:{ Interp.switch_sid = if_sid; switch_occ = 2 }
      ~input:[]
  in
  Alcotest.(check bool) "fired" true r.Interp.switch_fired;
  check_outputs "one flipped branch" [ 1001 ] (Interp.output_values r)

let test_switch_loop_predicate_exits_early () =
  let src =
    {|
void main() {
  int i = 0;
  while (i < 10) {
    i = i + 1;
  }
  print(i);
}
|}
  in
  let prog = compile src in
  let w_sid = sid_on_line prog 4 in
  let r =
    Interp.run prog
      ~switch:{ Interp.switch_sid = w_sid; switch_occ = 3 }
      ~input:[]
  in
  (* Third evaluation (i=2) flipped to false: loop exits with i=2. *)
  check_outputs "early exit" [ 2 ] (Interp.output_values r)

let test_value_switch () =
  let src =
    {|
void main() {
  int a = 5;
  int b = a + 1;
  print(b);
}
|}
  in
  let prog = compile src in
  let a_sid = sid_on_line prog 3 in
  let r =
    Interp.run prog
      ~vswitch:
        { Interp.vswitch_sid = a_sid; vswitch_occ = 1;
          vswitch_value = Value.Vint 100 }
      ~input:[]
  in
  Alcotest.(check bool) "fired" true r.Interp.switch_fired;
  check_outputs "perturbed value propagates" [ 101 ] (Interp.output_values r)

let test_value_switch_specific_occurrence () =
  let src =
    {|
void main() {
  int i = 0;
  int acc = 0;
  while (i < 3) {
    acc = acc + i;
    i = i + 1;
  }
  print(acc);
}
|}
  in
  let prog = compile src in
  let acc_sid = sid_on_line prog 6 in
  (* perturb only the 2nd execution of acc = acc + i *)
  let r =
    Interp.run prog
      ~vswitch:
        { Interp.vswitch_sid = acc_sid; vswitch_occ = 2;
          vswitch_value = Value.Vint 50 }
      ~input:[]
  in
  (* iterations: acc=0, then forced 50, then 50+2 = 52 *)
  check_outputs "one perturbed iteration" [ 52 ] (Interp.output_values r)

let test_switch_not_fired_when_unreached () =
  let prog = compile switch_src in
  let r =
    Interp.run prog
      ~switch:{ Interp.switch_sid = 0; switch_occ = 5 }
      ~input:[]
  in
  Alcotest.(check bool) "not fired" false r.Interp.switch_fired

(* Determinism: two traced runs on the same input yield identical traces
   (instance-by-instance), which the alignment machinery depends on. *)
let test_deterministic_replay () =
  let src =
    {|
int helper(int n) { return n * 2 + 1; }
void main() {
  int i = 0;
  int acc = 0;
  while (i < input()) {
    acc = acc + helper(i);
    i = i + 1;
  }
  print(acc);
}
|}
  in
  let prog = compile src in
  let r1 = Interp.run prog ~input:[ 6 ] in
  let r2 = Interp.run prog ~input:[ 6 ] in
  let t1 = trace_of r1 and t2 = trace_of r2 in
  Alcotest.(check int) "same length" (Trace.length t1) (Trace.length t2);
  for i = 0 to Trace.length t1 - 1 do
    let a = Trace.get t1 i and b = Trace.get t2 i in
    Alcotest.(check int) "sid" a.Trace.sid b.Trace.sid;
    Alcotest.(check int) "occ" a.Trace.occ b.Trace.occ;
    Alcotest.(check int) "parent" a.Trace.parent b.Trace.parent;
    Alcotest.(check bool) "value" true (Value.equal a.Trace.value b.Trace.value)
  done

(* Chaos: deterministic fault injection *)

let chaos_src =
  {|
void main() {
  int i = 0;
  int acc = 0;
  while (i < 50) {
    acc = acc + i;
    i = i + 1;
  }
  print(acc);
}
|}

let test_chaos_of_seed_deterministic () =
  for seed = 0 to 40 do
    Alcotest.(check bool) "same seed, same fault" true
      (Chaos.of_seed seed = Chaos.of_seed seed)
  done;
  (* a small seed sweep exercises every fault kind *)
  let kinds =
    List.init 64 (fun seed ->
        match (Chaos.of_seed seed).Chaos.fault with
        | Chaos.Crash_at _ -> 0
        | Chaos.Truncate_budget _ -> 1
        | Chaos.Corrupt_value _ -> 2
        | Chaos.Raise_at _ -> 3)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "all kinds reachable" [ 0; 1; 2; 3 ] kinds

let test_chaos_crash_at () =
  let chaos = { Chaos.seed = 0; fault = Chaos.Crash_at 20 } in
  let r = Interp.run ~chaos (compile chaos_src) ~input:[] in
  (match r.Interp.outcome with
  | Error (Interp.Crashed _) -> ()
  | _ -> Alcotest.fail "expected an injected crash");
  Alcotest.(check int) "at the chosen step" 20 r.Interp.steps

let test_chaos_truncate_budget () =
  let chaos = { Chaos.seed = 0; fault = Chaos.Truncate_budget 10 } in
  let r = Interp.run ~chaos (compile chaos_src) ~input:[] in
  Alcotest.(check bool) "budget abort" true
    (r.Interp.outcome = Error Interp.Budget_exhausted);
  (* the step that tripped the truncated budget is counted *)
  Alcotest.(check int) "at the truncated budget" 11 r.Interp.steps

let test_chaos_raise_at () =
  let chaos = { Chaos.seed = 0; fault = Chaos.Raise_at 15 } in
  match Interp.run ~chaos (compile chaos_src) ~input:[] with
  | _ -> Alcotest.fail "expected the injected exception to escape"
  | exception Chaos.Injected _ -> ()

let test_chaos_corrupt_value () =
  let clean = Interp.output_values (Interp.run (compile chaos_src) ~input:[]) in
  let chaos = { Chaos.seed = 0; fault = Chaos.Corrupt_value 8 } in
  let r1 = Interp.run ~chaos (compile chaos_src) ~input:[] in
  let r2 = Interp.run ~chaos (compile chaos_src) ~input:[] in
  (* the poison changes the result, deterministically *)
  Alcotest.(check bool) "output corrupted" true
    (Interp.output_values r1 <> clean || r1.Interp.outcome <> Ok ());
  Alcotest.(check bool) "corruption deterministic" true
    (Interp.output_values r1 = Interp.output_values r2
    && r1.Interp.outcome = r2.Interp.outcome)

let test_chaos_none_is_inert () =
  let clean = run chaos_src ~input:[] in
  let r = Interp.run ?chaos:None (compile chaos_src) ~input:[] in
  Alcotest.(check bool) "no chaos, same run" true
    (Interp.output_values clean = Interp.output_values r
    && clean.Interp.steps = r.Interp.steps)

(* Value profiles *)

let test_profile () =
  let src =
    {|
void main() {
  int n = input();
  int sq = n * n;
  print(sq);
}
|}
  in
  let prog = compile src in
  let profile = Profile.collect prog [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  Alcotest.(check int) "three runs" 3 (Profile.runs profile);
  let sq_sid = sid_on_line prog 4 in
  Alcotest.(check (list int))
    "squares profiled" [ 1; 4; 9 ]
    (Profile.range profile sq_sid ~observed:(Value.Vint 4));
  Alcotest.(check (list int))
    "observed joins range" [ 1; 4; 9; 25 ]
    (Profile.range profile sq_sid ~observed:(Value.Vint 25))

(* Properties *)

let prop_loop_count =
  QCheck.Test.make ~name:"counting loop prints its bound" ~count:50
    QCheck.(int_range 0 60)
    (fun n ->
      outputs
        {|
void main() {
  int n = input();
  int i = 0;
  while (i < n) { i = i + 1; }
  print(i);
}
|}
        ~input:[ n ]
      = [ n ])

let prop_switch_prefix_identical =
  (* Before the switched instance, the switched run's trace is identical
     to the original: the foundation of the alignment algorithm. *)
  QCheck.Test.make ~name:"switched run shares the prefix before the switch"
    ~count:30
    QCheck.(int_range 1 5)
    (fun occ ->
      let src =
        {|
void main() {
  int i = 0;
  int acc = 0;
  while (i < 5) {
    if (i % 2 == 0) {
      acc = acc + i;
    }
    i = i + 1;
  }
  print(acc);
}
|}
      in
      let prog = compile src in
      let if_sid = sid_on_line prog 6 in
      let base = Interp.run prog ~input:[] in
      let switched =
        Interp.run prog
          ~switch:{ Interp.switch_sid = if_sid; switch_occ = occ }
          ~input:[]
      in
      let t1 = trace_of base and t2 = trace_of switched in
      let switch_idx =
        match Trace.find_instance t1 ~sid:if_sid ~occ with
        | Some i -> i.Trace.idx
        | None -> -1
      in
      switch_idx >= 0
      && Trace.length t2 > switch_idx
      &&
      let ok = ref true in
      for i = 0 to switch_idx - 1 do
        let a = Trace.get t1 i and b = Trace.get t2 i in
        if
          a.Trace.sid <> b.Trace.sid
          || a.Trace.occ <> b.Trace.occ
          || not (Value.equal a.Trace.value b.Trace.value)
        then ok := false
      done;
      !ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "interp"
    [ ( "semantics",
        [ tc "arithmetic" test_arith;
          tc "comparisons and logic" test_comparisons_and_logic;
          tc "short circuit" test_short_circuit;
          tc "while" test_while_loop;
          tc "break/continue" test_break_continue;
          tc "input" test_input;
          tc "arrays" test_arrays;
          tc "array aliasing" test_array_aliasing;
          tc "recursion" test_functions_and_recursion;
          tc "array by reference" test_array_by_reference;
          tc "globals" test_globals ] );
      ( "failures",
        [ tc "crashes" test_crashes; tc "budget" test_budget ] );
      ( "tracing",
        [ tc "trace structure" test_trace_structure;
          tc "control parents" test_control_parents;
          tc "callee parents" test_callee_parents;
          tc "array element def-use" test_elem_def_use;
          tc "occurrences" test_occurrences;
          tc "deterministic replay" test_deterministic_replay ] );
      ( "switching",
        [ tc "changes output" test_switching_changes_output;
          tc "specific occurrence" test_switch_specific_occurrence;
          tc "loop predicate early exit" test_switch_loop_predicate_exits_early;
          tc "unreached switch" test_switch_not_fired_when_unreached;
          tc "value switch" test_value_switch;
          tc "value switch occurrence" test_value_switch_specific_occurrence ] );
      ( "chaos",
        [ tc "seed derivation deterministic" test_chaos_of_seed_deterministic;
          tc "injected crash" test_chaos_crash_at;
          tc "truncated budget" test_chaos_truncate_budget;
          tc "injected exception escapes" test_chaos_raise_at;
          tc "value corruption" test_chaos_corrupt_value;
          tc "no chaos, no effect" test_chaos_none_is_inert ] );
      ("profiles", [ tc "collect" test_profile ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_loop_count; prop_switch_prefix_identical ] ) ]
