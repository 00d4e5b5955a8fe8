(* End-to-end tests of the paper's technique: VerifyDep (Definitions 2
   and 4), the demand-driven LocateFault (Algorithm 2), the oracle, and
   the Table 5 feasibility/soundness scenarios. *)

module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Backoff = Exom_util.Backoff
module Chaos = Exom_interp.Chaos
module Demand = Exom_core.Demand
module Guard = Exom_core.Guard
module Oracle = Exom_core.Oracle
module Session = Exom_core.Session
module Verdict = Exom_core.Verdict
module Verify = Exom_core.Verify
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Relevant = Exom_ddg.Relevant
module Slice = Exom_ddg.Slice

let compile src = Typecheck.parse_and_check src

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

let instance_of t ~sid ~occ =
  match Trace.find_instance t ~sid ~occ with
  | Some i -> i.Trace.idx
  | None -> Alcotest.failf "no instance of s%d" sid

(* The full gzip scenario of Figure 1, with both the true implicit
   dependence (if(save_orig_name) -> outbuf[1]=flags, the paper's
   S4 -> S6) and the false potential-dependence candidate
   (second if -> print(outbuf[1]), the paper's S7 -> S10).

   Faulty: save_orig_name = 0.  Correct: save_orig_name = 1. *)

let gzip_template son =
  Printf.sprintf
    {|
int save_orig_name = %d;
int flags = 0;
void main() {
  int[] outbuf = new_array(4);
  int outcnt = 0;
  int deflated = 8;
  outbuf[outcnt] = deflated;
  outcnt = outcnt + 1;
  if (save_orig_name == 1) {
    flags = flags + 32;
  }
  outbuf[outcnt] = flags;
  outcnt = outcnt + 1;
  if (save_orig_name == 1) {
    outbuf[outcnt] = 127;
    outcnt = outcnt + 1;
  }
  print(outbuf[0]);
  print(outbuf[1]);
}
|}
    son

let gzip_faulty = gzip_template 0
let gzip_correct = gzip_template 1

(* Line map for the template *)
let l_root = 2 (* int save_orig_name *)
let l_if_flags = 10 (* if (save_orig_name == 1) guarding flags *)
let l_store_flags = 13 (* outbuf[outcnt] = flags *)
let l_if_127 = 15 (* second if *)

let gzip_session () =
  let faulty = compile gzip_faulty in
  let correct = compile gzip_correct in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ] ()
  in
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
      ~input:[]
  in
  (faulty, session, oracle)

let test_session_output_classification () =
  let _, session, _ = gzip_session () in
  Alcotest.(check int) "one correct output" 1
    (List.length session.Session.correct_outputs);
  Alcotest.(check bool) "expected value is 32" true
    (session.Session.vexp = Some (Exom_interp.Value.Vint 32));
  let wrong = Trace.get session.Session.trace session.Session.wrong_output in
  Alcotest.(check bool) "wrong output is an output instance" true
    (wrong.Trace.kind = Trace.Koutput)

let test_verify_strong_id () =
  let prog, session, _ = gzip_session () in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog l_if_flags) ~occ:1 in
  let u = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  Alcotest.(check string) "S4 -> S6 is STRONG_ID" "STRONG_ID"
    (Verdict.to_string (Verify.verify session ~p ~u))

let test_verify_not_id () =
  let prog, session, _ = gzip_session () in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog l_if_127) ~occ:1 in
  let u = session.Session.wrong_output in
  Alcotest.(check string) "S7 -> S10 is NOT_ID" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p ~u))

let test_verify_counts_runs () =
  let prog, session, _ = gzip_session () in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog l_if_flags) ~occ:1 in
  let u = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  ignore (Verify.verify session ~p ~u);
  ignore (Verify.verify session ~p ~u);
  (* cached *)
  Alcotest.(check int) "one re-execution" 1 (Session.verifications session)

let test_locate_gzip () =
  let prog, session, oracle = gzip_session () in
  let root = sid_on_line prog l_root in
  let report = Demand.locate session ~oracle ~root_sids:[ root ] in
  Alcotest.(check bool) "root cause located" true report.Demand.found;
  (* the dynamic slice alone missed it *)
  Alcotest.(check bool) "DS missed it" false
    (Slice.mem_sid report.Demand.ds root);
  (* few iterations, few edges: the paper's headline result *)
  Alcotest.(check bool) "iterations <= 2" true (report.Demand.iterations <= 2);
  Alcotest.(check bool) "at least one implicit edge" true
    (report.Demand.expanded_edges >= 1);
  Alcotest.(check bool) "verifications bounded" true
    (report.Demand.verifications <= 10);
  (* IPS contains the failure-explaining chain *)
  Alcotest.(check bool) "IPS contains root" true
    (Slice.mem_sid report.Demand.ips root);
  Alcotest.(check bool) "IPS contains the if" true
    (Slice.mem_sid report.Demand.ips (sid_on_line prog l_if_flags));
  (* OS exists and ends at the wrong output *)
  match report.Demand.os_chain with
  | Some chain ->
    Alcotest.(check int) "chain ends at failure" session.Session.wrong_output
      (List.nth chain (List.length chain - 1));
    Alcotest.(check int) "chain starts at root" root
      (Trace.get session.Session.trace (List.hd chain)).Trace.sid
  | None -> Alcotest.fail "no OS chain"

let test_locate_no_failure () =
  let correct = compile gzip_correct in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  match
    Session.create ~prog:correct ~input:[] ~expected ~profile_inputs:[] ()
  with
  | _ -> Alcotest.fail "expected No_failure"
  | exception Session.No_failure -> ()

(* A classic (non-omission) error for contrast: the dynamic slice
   already contains the root cause and no expansion is needed. *)
let test_locate_value_error () =
  let faulty =
    compile
      {|
void main() {
  int a = 5;
  int b = a * 3;
  print(b);
}
|}
  in
  let correct =
    compile
      {|
void main() {
  int a = 5;
  int b = a * 2;
  print(b);
}
|}
  in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ] ()
  in
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
      ~input:[]
  in
  let root = sid_on_line (session.Session.prog) 4 in
  let report = Demand.locate session ~oracle ~root_sids:[ root ] in
  Alcotest.(check bool) "found" true report.Demand.found;
  Alcotest.(check int) "no expansion needed" 0 report.Demand.expanded_edges;
  Alcotest.(check int) "no verifications" 0 report.Demand.verifications

(* Table 5(a): feasibility.  P1 true implies P2 false in the faulty
   program, yet switching P2 exposes an implicit dependence — the paper
   argues this is the right call, since the predicates themselves may be
   the error. *)
let test_feasibility_table5a () =
  let src =
    {|
int a = 15;
void main() {
  int x = 1;
  if (a > 10) {
    x = 2;
  }
  if (a > 100) {
    x = 3;
  }
  print(x);
}
|}
  in
  let prog = compile src in
  (* expected: pretend the correct program yields 3 at the print *)
  let session =
    Session.create ~prog ~input:[] ~expected:[ 3 ] ~profile_inputs:[ [] ] ()
  in
  let t = session.Session.trace in
  let p2 = instance_of t ~sid:(sid_on_line prog 8) ~occ:1 in
  let u = session.Session.wrong_output in
  (* switching the infeasible P2 produces x = 3 = vexp: strong *)
  Alcotest.(check string) "infeasible switch still verifies" "STRONG_ID"
    (Verdict.to_string (Verify.verify session ~p:p2 ~u))

(* Table 5(b): soundness gap.  Both predicates test the same A; flipping
   P1 alone lets P2 evaluate (to false), so S3 still does not execute
   and the implicit dependence is missed — the paper's known unsound
   case. *)
let test_soundness_table5b () =
  let src =
    {|
int a = 5;
void main() {
  int x = 1;
  if (a > 10) {
    if (a < 5) {
      x = 2;
    }
  }
  print(x);
}
|}
  in
  let prog = compile src in
  let session =
    Session.create ~prog ~input:[] ~expected:[ 2 ] ~profile_inputs:[ [] ] ()
  in
  let t = session.Session.trace in
  let p1 = instance_of t ~sid:(sid_on_line prog 5) ~occ:1 in
  let u = session.Session.wrong_output in
  Alcotest.(check string) "nested same-variable predicates are missed"
    "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p:p1 ~u))

(* Edge vs path VerifyDep (§3.2): the paper's chained case — switching P
   reroutes x through t and the loop, an explicit *path* p' -> t=1' ->
   while' -> x=7' -> u' with no direct rerouted edge.  Path mode sees the
   dependence at once; edge mode must discover the chain in two steps
   ("the algorithm is able to identify 2 -> 6 and 6 -> 15"). *)

let chain_template p =
  Printf.sprintf
    {|
int p = %d;
int t = 0;
int x = 0;
void main() {
  if (p == 1) {
    t = 1;
  }
  int i = 0;
  while (i < t) {
    x = 7;
    i = i + 1;
  }
  print(x);
}
|}
    p

let chain_session () =
  let faulty = compile (chain_template 0) in
  let correct = compile (chain_template 1) in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ] ()
  in
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
      ~input:[]
  in
  (faulty, session, oracle)

let test_edge_vs_path_verdicts () =
  let prog, session, _ = chain_session () in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog 6) ~occ:1 in
  let u = session.Session.wrong_output in
  Alcotest.(check string) "edge mode misses the chained dependence" "NOT_ID"
    (Verdict.to_string
       (Verify.verify ~mode:Verify.Edge_approximation session ~p ~u));
  (* fresh session: verdicts are cached per session *)
  let _, session2, _ = chain_session () in
  let t2 = session2.Session.trace in
  let p2 = instance_of t2 ~sid:(sid_on_line prog 6) ~occ:1 in
  Alcotest.(check string) "path mode sees it (and it is strong)" "STRONG_ID"
    (Verdict.to_string
       (Verify.verify ~mode:Verify.Path_exact session2 ~p:p2
          ~u:session2.Session.wrong_output))

let test_edge_mode_finds_chain_eventually () =
  (* The paper's §3.2 claim: with edges instead of paths "the error will
     still be contained eventually" — here via two chained expansions. *)
  let prog, session, oracle = chain_session () in
  let root = sid_on_line prog 2 in
  let report = Demand.locate session ~oracle ~root_sids:[ root ] in
  Alcotest.(check bool) "found through the chain" true report.Demand.found;
  Alcotest.(check int) "two chained expansions" 2 report.Demand.iterations;
  Alcotest.(check bool) "at least two edges" true
    (report.Demand.expanded_edges >= 2)

(* Crash failures: the omitted clamp makes a loop overrun an array; the
   failure is a crash, not a wrong value, so there is no vexp and only
   plain (never strong) implicit dependences — yet the root is still
   located. *)

let crash_template ok =
  Printf.sprintf
    {|
int size_ok = %d;
void main() {
  int[] a = new_array(2);
  int n = 5;
  if (size_ok == 1) {
    n = 2;
  }
  int i = 0;
  while (i < n) {
    a[i] = i;
    i = i + 1;
  }
  print(a[0]);
}
|}
    ok

let test_crash_session () =
  let faulty = compile (crash_template 0) in
  let correct = compile (crash_template 1) in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ] ()
  in
  Alcotest.(check bool) "no expected value" true (session.Session.vexp = None);
  Alcotest.(check bool) "run crashed" true
    (match session.Session.run.Interp.outcome with
    | Error (Interp.Crashed _) -> true
    | _ -> false);
  (* the criterion is the crashing store, with its reads recorded *)
  let crash = Trace.get session.Session.trace session.Session.wrong_output in
  Alcotest.(check int) "criterion is the last instance"
    (Trace.length session.Session.trace - 1)
    crash.Trace.idx;
  Alcotest.(check bool) "crash instance has recorded reads" true
    (crash.Trace.uses <> [])

let test_crash_locate () =
  let faulty = compile (crash_template 0) in
  let correct = compile (crash_template 1) in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ] ()
  in
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
      ~input:[]
  in
  let root = sid_on_line faulty 2 in
  let report = Demand.locate session ~oracle ~root_sids:[ root ] in
  Alcotest.(check bool) "crash root located" true report.Demand.found;
  (* without vexp nothing can be strong; edges are plain IDs *)
  Alcotest.(check bool) "at least one edge" true
    (report.Demand.expanded_edges >= 1)

(* An infinite-loop omission fault: the guard that advances the loop
   counter is wrongly disabled, the failing run exhausts its step
   budget, and the budget-abort point anchors the localization. *)

let hang_template ok =
  Printf.sprintf
    {|
int advance_on = %d;
void main() {
  int i = 0;
  int acc = 0;
  while (i < 4) {
    acc = acc + i;
    if (advance_on == 1) {
      i = i + 1;
    }
  }
  print(acc);
}
|}
    ok

let test_hang_locate () =
  let faulty = compile (hang_template 0) in
  let correct = compile (hang_template 1) in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ~budget:5_000 ~prog:faulty ~input:[] ~expected
      ~profile_inputs:[] ()
  in
  Alcotest.(check bool) "budget-exhausted failing run" true
    (session.Session.run.Interp.outcome = Error Interp.Budget_exhausted);
  let oracle =
    Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
      ~input:[]
  in
  let root = sid_on_line faulty 2 in
  let report = Demand.locate session ~oracle ~root_sids:[ root ] in
  Alcotest.(check bool) "hang root located" true report.Demand.found

(* Value perturbation (§5): nested predicates testing the same
   definition defeat predicate switching (Table 5(b)); perturbing the
   definition's value exposes the dependence. *)

let correlated_template a =
  Printf.sprintf
    {|
int a = %d;
void main() {
  int x = 1;
  if (a > 10) {
    if (a > 11) {
      x = 2;
    }
  }
  print(x);
}
|}
    a

let test_perturbation_recovers_soundness_gap () =
  let faulty = compile (correlated_template 5) in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected:[ 2 ] ~profile_inputs:[ [] ]
      ()
  in
  let t = session.Session.trace in
  let p1 = instance_of t ~sid:(sid_on_line faulty 5) ~occ:1 in
  let u = session.Session.wrong_output in
  (* branch switching misses: the inner correlated predicate stays false *)
  Alcotest.(check string) "switching P1 misses" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p:p1 ~u));
  (* perturbing a's value to 12 satisfies both predicates *)
  let d = instance_of t ~sid:(sid_on_line faulty 2) ~occ:1 in
  Alcotest.(check string) "perturbing a catches it (strongly)" "STRONG_ID"
    (Verdict.to_string
       (Exom_core.Perturb.verify_value session ~d
          ~candidate:(Exom_interp.Value.Vint 12) ~u))

let test_perturbation_rejects_irrelevant_def () =
  let faulty = compile (correlated_template 5) in
  let session =
    Session.create ~prog:faulty ~input:[] ~expected:[ 2 ] ~profile_inputs:[ [] ]
      ()
  in
  let t = session.Session.trace in
  (* perturbing a to a value that still fails both predicates: NOT_ID *)
  let d = instance_of t ~sid:(sid_on_line faulty 2) ~occ:1 in
  Alcotest.(check string) "useless candidate" "NOT_ID"
    (Verdict.to_string
       (Exom_core.Perturb.verify_value session ~d
          ~candidate:(Exom_interp.Value.Vint 7)
          ~u:session.Session.wrong_output))

let test_perturbation_profile_search () =
  (* with a profile that contains a triggering value, the range search
     finds it without being told the candidate *)
  let src =
    {|
void main() {
  int a = input();
  int x = 1;
  if (a > 10) {
    if (a > 11) {
      x = 2;
    }
  }
  print(x);
}
|}
  in
  let prog = compile src in
  let session =
    Session.create ~prog ~input:[ 5 ] ~expected:[ 2 ]
      ~profile_inputs:[ [ 3 ]; [ 12 ]; [ 20 ] ] ()
  in
  let t = session.Session.trace in
  let d = instance_of t ~sid:(sid_on_line prog 3) ~occ:1 in
  Alcotest.(check string) "profile search succeeds" "STRONG_ID"
    (Verdict.to_string
       (Exom_core.Perturb.verify_over_profile session ~d
          ~u:session.Session.wrong_output))

(* Oracle behaviour *)

let test_oracle_benign_classification () =
  let _, session, oracle = gzip_session () in
  let t = session.Session.trace in
  let prog = session.Session.prog in
  (* deflated decl: same in both runs -> benign *)
  let defl = instance_of t ~sid:(sid_on_line prog 7) ~occ:1 in
  Alcotest.(check bool) "deflated benign" true (Oracle.benign oracle defl);
  (* the store of flags: 0 vs 32 -> corrupted *)
  let store = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  Alcotest.(check bool) "flags store corrupted" false
    (Oracle.benign oracle store);
  (* the root cause decl: 0 vs 1 -> corrupted *)
  let root = instance_of t ~sid:(sid_on_line prog l_root) ~occ:1 in
  Alcotest.(check bool) "root corrupted" false (Oracle.benign oracle root)

(* Budget exhaustion during verification: switching a predicate that
   makes the program loop forever must yield NOT_ID, not a hang. *)
let test_verification_timeout () =
  let faulty =
    compile
      {|
int stop = 1;
void main() {
  int x = 0;
  int i = 0;
  while (i < 3) {
    if (stop == 0) {
      i = i - 1;
    }
    i = i + 1;
    x = x + 1;
  }
  print(x);
}
|}
  in
  let session =
    Session.create ~budget:20_000 ~prog:faulty ~input:[] ~expected:[ 99 ]
      ~profile_inputs:[ [] ] ()
  in
  let t = session.Session.trace in
  let p =
    instance_of t ~sid:(sid_on_line session.Session.prog 7) ~occ:1
  in
  let u = session.Session.wrong_output in
  (* switching if(stop==0) makes i oscillate: infinite loop -> budget *)
  Alcotest.(check string) "budget abort is NOT_ID" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p ~u))

(* Resilience: the guard around switched re-executions.  Chaos faults
   are injected into every re-execution (never the failing run); the
   verifier must degrade to NOT_ID, count everything, and let nothing
   escape. *)

let gzip_session_with ?policy ?chaos () =
  let faulty = compile gzip_faulty in
  let correct = compile gzip_correct in
  let expected = Oracle.expected ~correct_prog:correct ~input:[] in
  let session =
    Session.create ?policy ?chaos ~prog:faulty ~input:[] ~expected
      ~profile_inputs:[ [] ] ()
  in
  (faulty, session)

let stats_of (s : Session.t) = Guard.stats s.Session.guard

let test_chaos_crash_degrades () =
  (* every switched run dies at its first step: the strong verdict of
     test_verify_strong_id degrades to NOT_ID, with the abort counted *)
  let prog, session =
    gzip_session_with ~chaos:{ Chaos.seed = 0; fault = Chaos.Crash_at 1 } ()
  in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog l_if_flags) ~occ:1 in
  let u = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  Alcotest.(check string) "degrades to NOT_ID" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p ~u));
  let g = stats_of session in
  Alcotest.(check int) "aborted" 1 g.Guard.aborted;
  Alcotest.(check int) "completed" 0 g.Guard.completed;
  Alcotest.(check int) "accounted" (Session.verifications session)
    (g.Guard.completed + g.Guard.aborted);
  match Guard.failures session.Session.guard with
  | [ (_, Guard.Run_crashed _) ] -> ()
  | fs -> Alcotest.failf "unexpected journal (%d entries)" (List.length fs)

let test_chaos_exception_contained () =
  (* an exception the interpreter does not convert to an outcome must be
     captured by the guard, not propagated out of the verifier *)
  let prog, session =
    gzip_session_with ~chaos:{ Chaos.seed = 0; fault = Chaos.Raise_at 1 } ()
  in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line prog l_if_flags) ~occ:1 in
  let u = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  Alcotest.(check string) "contained to NOT_ID" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p ~u));
  let g = stats_of session in
  Alcotest.(check int) "captured" 1 g.Guard.captured;
  Alcotest.(check int) "aborted" 1 g.Guard.aborted;
  (* the run attempt still counts toward the session tally *)
  Alcotest.(check int) "accounted" (Session.verifications session)
    (g.Guard.completed + g.Guard.aborted)

let test_breaker_opens_and_skips () =
  (* two consecutive aborts of the same static predicate open its
     breaker; the third verification is skipped without a re-execution *)
  let policy = { Guard.default_policy with Guard.breaker_threshold = 2 } in
  let prog, session =
    gzip_session_with ~policy
      ~chaos:{ Chaos.seed = 0; fault = Chaos.Raise_at 1 } ()
  in
  let t = session.Session.trace in
  let sid_p = sid_on_line prog l_if_flags in
  let p = instance_of t ~sid:sid_p ~occ:1 in
  let u1 = instance_of t ~sid:(sid_on_line prog l_store_flags) ~occ:1 in
  let u2 = session.Session.wrong_output in
  let u3 = instance_of t ~sid:(sid_on_line prog 7) ~occ:1 in
  ignore (Verify.verify session ~p ~u:u1);
  Alcotest.(check bool) "breaker still closed" false
    (Guard.breaker_open session.Session.guard ~sid:sid_p);
  ignore (Verify.verify session ~p ~u:u2);
  Alcotest.(check bool) "breaker open after threshold" true
    (Guard.breaker_open session.Session.guard ~sid:sid_p);
  Alcotest.(check string) "skipped verification is NOT_ID" "NOT_ID"
    (Verdict.to_string (Verify.verify session ~p ~u:u3));
  let g = stats_of session in
  Alcotest.(check int) "one trip" 1 g.Guard.breaker_trips;
  Alcotest.(check int) "one skip" 1 g.Guard.breaker_skips;
  (* the skip performed no re-execution *)
  Alcotest.(check int) "two runs only" 2 (Session.verifications session);
  Alcotest.(check int) "accounted" (Session.verifications session)
    (g.Guard.completed + g.Guard.aborted)

(* Budget escalation: switching the guard sends the program through a
   long loop the base budget cannot afford, but one doubling can. *)

let escalation_template = {|
int skip = 1;
void main() {
  int x = 0;
  int i = 0;
  if (skip == 0) {
    while (i < 60) {
      i = i + 1;
    }
    x = 1;
  }
  print(x);
}
|}

let escalation_session policy =
  let faulty = compile escalation_template in
  let session =
    Session.create ~budget:100 ~policy ~prog:faulty ~input:[] ~expected:[ 1 ]
      ~profile_inputs:[ [] ] ()
  in
  let t = session.Session.trace in
  let p = instance_of t ~sid:(sid_on_line faulty 6) ~occ:1 in
  (faulty, session, p)

let test_escalation_rescues_tight_budget () =
  let policy =
    { Guard.strict_policy with
      Guard.backoff = Backoff.make ~factor:2 ~max_retries:2 ~cap_factor:8 }
  in
  let _, session, p = escalation_session policy in
  Alcotest.(check string) "verified after escalation" "STRONG_ID"
    (Verdict.to_string
       (Verify.verify session ~p ~u:session.Session.wrong_output));
  let g = stats_of session in
  Alcotest.(check bool) "at least one retry" true (g.Guard.retried >= 1);
  Alcotest.(check int) "final attempt completed" 1 g.Guard.completed;
  Alcotest.(check int) "earlier attempts aborted" g.Guard.retried
    g.Guard.aborted;
  Alcotest.(check int) "every attempt accounted" (Session.verifications session)
    (g.Guard.completed + g.Guard.aborted)

let test_no_escalation_misses () =
  (* differential: under the strict (no-retry) policy the same
     verification times out and is conservatively NOT_ID *)
  let _, session, p = escalation_session Guard.strict_policy in
  Alcotest.(check string) "timer abort without escalation" "NOT_ID"
    (Verdict.to_string
       (Verify.verify session ~p ~u:session.Session.wrong_output));
  let g = stats_of session in
  Alcotest.(check int) "no retries" 0 g.Guard.retried;
  Alcotest.(check int) "one abort" 1 g.Guard.aborted

let test_locate_under_chaos_never_raises () =
  (* a seed sweep over the full locate loop: whatever the injected fault
     does to the re-executions, locate returns a report whose robustness
     accounting is consistent *)
  for seed = 0 to 19 do
    let chaos = Chaos.of_seed ~max_step:48 seed in
    let faulty = compile gzip_faulty in
    let correct = compile gzip_correct in
    let expected = Oracle.expected ~correct_prog:correct ~input:[] in
    let session =
      Session.create ~chaos ~prog:faulty ~input:[] ~expected
        ~profile_inputs:[ [] ] ()
    in
    let oracle =
      Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
        ~input:[]
    in
    let root = sid_on_line faulty l_root in
    let report =
      try Demand.locate session ~oracle ~root_sids:[ root ]
      with exn ->
        Alcotest.failf "locate raised under %s: %s"
          (Chaos.fault_to_string chaos.Chaos.fault)
          (Printexc.to_string exn)
    in
    let g = report.Demand.robustness in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every run accounted" seed)
      report.Demand.verifications
      (g.Guard.completed + g.Guard.aborted);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: retries bounded by aborts" seed)
      true
      (g.Guard.retried <= g.Guard.aborted);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: journal covers the failures" seed)
      true
      (List.length report.Demand.failures
      >= g.Guard.breaker_skips)
  done

(* Systematic property: random programs with a synthesized execution
   omission error — a guarded update whose guard flag is wrongly 0 —
   must always be locatable.  The generator varies the arithmetic
   pipeline feeding the guarded variable, the guarded update itself,
   and trailing noise, so the slice shapes differ across cases. *)

let omission_program ~flag ~k1 ~k2 ~bump ~noise ~loops =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "int flag = %d;\n" flag;
  pr "void main() {\n";
  pr "  int a = input();\n";
  pr "  int b = a * %d + %d;\n" k1 k2;
  if loops then begin
    pr "  int i = 0;\n";
    pr "  while (i < 3) {\n";
    pr "    b = b + i;\n";
    pr "    i = i + 1;\n";
    pr "  }\n"
  end;
  pr "  if (flag == 1) {\n";
  pr "    b = b + %d;\n" bump;
  pr "  }\n";
  for j = 1 to noise do
    pr "  int n%d = a + %d;\n" j j
  done;
  pr "  print(a);\n";
  if noise > 0 then pr "  print(n1);\n";
  pr "  print(b);\n";
  pr "}\n";
  Buffer.contents buf

let prop_synthesized_omissions_located =
  QCheck.Test.make ~name:"synthesized omission faults are located" ~count:25
    QCheck.(
      quad (int_range 1 5) (int_range 0 9) (int_range 1 50)
        (pair (int_range 0 2) bool))
    (fun (k1, k2, bump, (noise, loops)) ->
      let faulty =
        compile (omission_program ~flag:0 ~k1 ~k2 ~bump ~noise ~loops)
      in
      let correct =
        compile (omission_program ~flag:1 ~k1 ~k2 ~bump ~noise ~loops)
      in
      let input = [ 7 ] in
      let expected = Oracle.expected ~correct_prog:correct ~input in
      let session =
        Session.create ~prog:faulty ~input ~expected
          ~profile_inputs:[ [ 1 ]; [ 2 ]; [ 5 ] ] ()
      in
      let oracle =
        Oracle.create ~faulty_trace:session.Session.trace
          ~correct_prog:correct ~input
      in
      let report = Demand.locate session ~oracle ~root_sids:[ 0 ] in
      (* the dynamic slice must have missed it AND locate must find it *)
      (not (Slice.mem_sid report.Demand.ds 0)) && report.Demand.found)

(* Property: locate never reports found=true without the root actually
   being in the final pruned slice. *)
let prop_found_implies_in_ips =
  QCheck.Test.make ~name:"found implies root in IPS" ~count:10
    QCheck.(int_range 1 20)
    (fun seed ->
      let faulty = compile gzip_faulty in
      let correct = compile gzip_correct in
      ignore seed;
      let expected = Oracle.expected ~correct_prog:correct ~input:[] in
      let session =
        Session.create ~prog:faulty ~input:[] ~expected ~profile_inputs:[ [] ]
          ()
      in
      let oracle =
        Oracle.create ~faulty_trace:session.Session.trace
          ~correct_prog:correct ~input:[]
      in
      let root = sid_on_line faulty l_root in
      let report = Demand.locate session ~oracle ~root_sids:[ root ] in
      (not report.Demand.found) || Slice.mem_sid report.Demand.ips root)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [ ( "session",
        [ tc "output classification" test_session_output_classification;
          tc "no failure" test_locate_no_failure ] );
      ( "verify",
        [ tc "strong implicit dependence" test_verify_strong_id;
          tc "no implicit dependence" test_verify_not_id;
          tc "caching" test_verify_counts_runs;
          tc "budget abort" test_verification_timeout ] );
      ( "table 5",
        [ tc "(a) feasibility" test_feasibility_table5a;
          tc "(b) soundness gap" test_soundness_table5b ] );
      ( "edge vs path",
        [ tc "verdicts differ on chains" test_edge_vs_path_verdicts;
          tc "edge mode chains eventually" test_edge_mode_finds_chain_eventually
        ] );
      ( "crash failures",
        [ tc "session classification" test_crash_session;
          tc "crash root located" test_crash_locate;
          tc "infinite-loop fault located" test_hang_locate ] );
      ( "value perturbation",
        [ tc "recovers the soundness gap"
            test_perturbation_recovers_soundness_gap;
          tc "rejects useless candidates"
            test_perturbation_rejects_irrelevant_def;
          tc "profile-driven search" test_perturbation_profile_search ] );
      ("oracle", [ tc "benign classification" test_oracle_benign_classification ]);
      ( "locate",
        [ tc "gzip scenario end-to-end" test_locate_gzip;
          tc "classic value error" test_locate_value_error ] );
      ( "resilience",
        [ tc "injected crash degrades" test_chaos_crash_degrades;
          tc "injected exception contained" test_chaos_exception_contained;
          tc "circuit breaker opens and skips" test_breaker_opens_and_skips;
          tc "escalation rescues a tight budget"
            test_escalation_rescues_tight_budget;
          tc "no escalation misses it" test_no_escalation_misses;
          tc "locate never raises under chaos"
            test_locate_under_chaos_never_raises ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_synthesized_omissions_located; prop_found_implies_in_ips ] ) ]
