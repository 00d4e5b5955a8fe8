module Rollup = Exom_benchmark.Rollup
module Span = Exom_obs.Span

let span ?(tid = 0) id parent name ts dur =
  { Span.id; parent; tid; name; cat = "test"; ts_us = ts; dur_us = dur; args = [] }

let w1 = Span.stride and w2 = 2 * Span.stride

(* One request: [request] covers [0, 100); [a] (with its own child a1)
   and the batch [b] cover 80 of it, leaving a 20 us gap no child
   closes.  The batch's work ran on two worker lanes. *)
let spans =
  [ span 0 (-1) "request" 0. 100.;
    span 1 0 "a" 5. 30.;
    span 2 1 "a1" 10. 10.;
    span 3 0 "verify.batch" 40. 50.;
    span ~tid:1 w1 3 "verify.reexec" 41. 45.;
    span ~tid:1 (w1 + 1) w1 "interp.run" 42. 40.;
    span ~tid:2 w2 3 "verify.reexec" 41. 35. ]

let self name es =
  (List.find (fun e -> e.Rollup.span.Span.name = name) es).Rollup.self_us

let close = Alcotest.(check (float 1e-9))

let same_lane_nesting () =
  let es = Rollup.entries spans in
  close "a minus a1" 20. (self "a" es);
  close "a1 is a leaf" 10. (self "a1" es);
  close "worker span minus its child" 5.
    (List.find (fun e -> e.Rollup.span.Span.id = w1) es).Rollup.self_us

let cross_lane_children () =
  let es = Rollup.entries spans in
  close "workers do not subtract from the batch" 50. (self "verify.batch" es);
  close "worker busy time" 80. (Rollup.worker_busy_us es);
  close "interp.run on every lane" 40. (Rollup.total_us es [ "interp.run" ])

let unclosed_gap () =
  let es = Rollup.entries spans in
  close "the gap is the root's self time" 20. (Rollup.unattributed_us es);
  close "traced wall" 100. (Rollup.wall_us es);
  close "coordinator self times partition the wall" 100.
    (Rollup.self_us es [ "request"; "a"; "a1"; "verify.batch" ]);
  (* a span whose parent never completed is a root of its own *)
  let orphan = span 7 6 "orphan" 200. 10. in
  let es = Rollup.entries (orphan :: spans) in
  close "orphan counts as wall" 110. (Rollup.wall_us es);
  close "and as unattributed" 30. (Rollup.unattributed_us es)

let () =
  Alcotest.run "rollup"
    [ ( "self time",
        [ Alcotest.test_case "same-lane nesting" `Quick same_lane_nesting;
          Alcotest.test_case "cross-lane children" `Quick cross_lane_children;
          Alcotest.test_case "unclosed gap" `Quick unclosed_gap ] ) ]
