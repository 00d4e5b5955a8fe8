(* Tests for the utility library: growable vectors, union-find, text
   tables, the checked I/O façade. *)

module Vec = Exom_util.Vec
module Uf = Exom_util.Union_find
module Table = Exom_util.Table
module Vfs = Exom_util.Vfs

(* Vec *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  (match Vec.get v 3 with
  | _ -> Alcotest.fail "expected out of bounds"
  | exception Invalid_argument _ -> ());
  match Vec.get v (-1) with
  | _ -> Alcotest.fail "expected out of bounds"
  | exception Invalid_argument _ -> ()

let test_vec_iteration () =
  let v = Vec.of_list ~dummy:0 [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 4; 1; 5 ] (Vec.to_list v);
  Alcotest.(check int) "fold sum" 14 (Vec.fold_left ( + ) 0 v);
  let idxs = ref [] in
  Vec.iteri (fun i x -> idxs := (i, x) :: !idxs) v;
  Alcotest.(check int) "iteri count" 5 (List.length !idxs);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 4) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  Alcotest.(check (option int)) "find" (Some 4) (Vec.find_opt (fun x -> x > 3) v)

let test_vec_clear () =
  let v = Vec.of_list ~dummy:0 [ 1; 2 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "reusable" 9 (Vec.get v 0)

let prop_vec_matches_list =
  QCheck.Test.make ~name:"vec mirrors list operations" ~count:100
    QCheck.(list int)
    (fun xs ->
      let v = Vec.of_list ~dummy:0 xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Vec.fold_left ( + ) 0 v = List.fold_left ( + ) 0 xs)

(* Union-find *)

let test_uf_basic () =
  let uf = Uf.create () in
  Alcotest.(check bool) "singletons differ" false (Uf.same uf "a" "b");
  Uf.union uf "a" "b";
  Alcotest.(check bool) "united" true (Uf.same uf "a" "b");
  Uf.union uf "c" "d";
  Alcotest.(check bool) "separate classes" false (Uf.same uf "a" "c");
  Uf.union uf "b" "c";
  Alcotest.(check bool) "transitive" true (Uf.same uf "a" "d")

let test_uf_idempotent () =
  let uf = Uf.create () in
  Uf.union uf 1 2;
  Uf.union uf 1 2;
  Uf.union uf 2 1;
  Alcotest.(check bool) "still same" true (Uf.same uf 1 2);
  Alcotest.(check int) "find stable" (Uf.find uf 1) (Uf.find uf 2)

let prop_uf_equivalence =
  (* after arbitrary unions, same/find implement an equivalence
     relation consistent with the union history *)
  QCheck.Test.make ~name:"union-find equals reference partition" ~count:60
    QCheck.(list (pair (int_range 0 15) (int_range 0 15)))
    (fun pairs ->
      let uf = Uf.create () in
      List.iter (fun (a, b) -> Uf.union uf a b) pairs;
      (* reference: fixpoint of a naive partition *)
      let repr = Array.init 16 Fun.id in
      let rec root i = if repr.(i) = i then i else root repr.(i) in
      List.iter
        (fun (a, b) ->
          let ra = root a and rb = root b in
          if ra <> rb then repr.(ra) <- rb)
        pairs;
      let ok = ref true in
      for a = 0 to 15 do
        for b = 0 to 15 do
          if Uf.same uf a b <> (root a = root b) then ok := false
        done
      done;
      !ok)

(* Table *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: sep :: row1 :: row2 :: _ ->
    Alcotest.(check string) "header" "| name  |  n |" header;
    Alcotest.(check string) "separator" "|-------|----|" sep;
    Alcotest.(check string) "row1 left-padded" "| alpha |  1 |" row1;
    Alcotest.(check string) "row2 right-aligned" "| b     | 22 |" row2
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "all lines same width" true
    (match List.filter (fun l -> l <> "") lines with
    | [] -> false
    | l :: rest -> List.for_all (fun x -> String.length x = String.length l) rest)

let test_table_column_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  match Table.add_row t [ "only one" ] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_table_aligns_mismatch () =
  match Table.create ~aligns:[ Table.Left ] [ "a"; "b" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Vfs: the checked I/O façade and its injectable chaos *)

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_vfs_test_%d_%d" (Unix.getpid ()) !n)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_disarmed f =
  Vfs.disarm ();
  Vfs.reset_counters ();
  Fun.protect ~finally:(fun () -> Vfs.disarm ()) f

let test_vfs_plain_roundtrip () =
  with_disarmed (fun () ->
      let p = tmp_path () in
      Alcotest.(check bool) "write ok" true
        (Vfs.write_file_atomic p "hello" = Ok ());
      Alcotest.(check string) "content" "hello" (read_all p);
      (match Vfs.read_file p with
      | Ok s -> Alcotest.(check string) "read back" "hello" s
      | Error e -> Alcotest.fail (Vfs.error_message e));
      Sys.remove p;
      let c = Vfs.counters () in
      Alcotest.(check int) "nothing injected" 0 c.Vfs.c_injected;
      Alcotest.(check int) "no real errors" 0 c.Vfs.c_real)

let test_vfs_real_error_is_typed () =
  with_disarmed (fun () ->
      match Vfs.write_file_atomic "/nonexistent_dir_xyz/f" "x" with
      | Ok () -> Alcotest.fail "write into a missing directory succeeded"
      | Error e ->
        Alcotest.(check bool) "real, not injected" true (e.Vfs.ve_fault = None);
        Alcotest.(check int) "counted as real" 1 (Vfs.counters ()).Vfs.c_real)

let test_vfs_targeted_fires_once () =
  with_disarmed (fun () ->
      let p = tmp_path () in
      Vfs.arm
        (Vfs.Io_chaos.targeted ~op:Vfs.Write ~path_substr:"exom_vfs_test"
           ~after:2 Vfs.Enospc);
      Alcotest.(check bool) "first write passes" true
        (Vfs.write_file_atomic p "one" = Ok ());
      (match Vfs.write_file_atomic p "two" with
      | Ok () -> Alcotest.fail "second write should fault"
      | Error e ->
        Alcotest.(check bool) "injected ENOSPC" true
          (e.Vfs.ve_fault = Some Vfs.Enospc);
        (* ENOSPC on an atomic write: the destination keeps its content *)
        Alcotest.(check string) "destination intact" "one" (read_all p);
        Vfs.ack e ~by:"test.io_failures");
      Alcotest.(check bool) "third write passes (budget spent)" true
        (Vfs.write_file_atomic p "three" = Ok ());
      Sys.remove p;
      let c = Vfs.counters () in
      Alcotest.(check int) "one injected" 1 c.Vfs.c_injected;
      Alcotest.(check int) "one acked" 1 c.Vfs.c_acked;
      Alcotest.(check (list (pair string int))) "tally names the consumer"
        [ ("test.io_failures", 1) ]
        (Vfs.ack_tally ()))

let test_vfs_seeded_deterministic () =
  with_disarmed (fun () ->
      let base = tmp_path () in
      let paths = List.init 7 (fun i -> Printf.sprintf "%s.p%d" base i) in
      let run () =
        Vfs.arm (Vfs.Io_chaos.of_seed ~rate:3 ~per_path:99 42);
        (* each unsynced atomic write consults the plan at its write,
           close and rename *)
        let decisions =
          List.init 40 (fun i ->
              let p = List.nth paths (i mod 7) in
              match
                Vfs.write_file_atomic ~fsync:false ~tmp:(p ^ ".tmp") p "x"
              with
              | Error e -> Vfs.fault_to_string (Option.get e.Vfs.ve_fault)
              | Ok () -> ".")
        in
        Vfs.disarm ();
        List.iter
          (fun p ->
            List.iter
              (fun f -> if Sys.file_exists f then Sys.remove f)
              [ p; p ^ ".tmp" ])
          paths;
        decisions
      in
      let a = run () and b = run () in
      Alcotest.(check (list string)) "same seed, same storm" a b;
      Alcotest.(check bool) "storm actually fired" true
        (List.exists (fun d -> d <> ".") a))

let test_vfs_per_path_budget () =
  with_disarmed (fun () ->
      (* rate 1 faults every eligible op; per_path 1 lets a retry against
         the same destination through *)
      let p = tmp_path () in
      Vfs.arm (Vfs.Io_chaos.of_seed ~rate:1 ~per_path:1 7);
      (match Vfs.write_file_atomic p "v" with
      | Ok () -> Alcotest.fail "rate-1 storm let the first write pass"
      | Error e -> Vfs.ack e ~by:"test.io_failures");
      Alcotest.(check bool) "retry passes under the path budget" true
        (Vfs.write_file_atomic p "v" = Ok ());
      Alcotest.(check string) "retry landed" "v" (read_all p);
      Sys.remove p)

let test_vfs_torn_rename_renames () =
  with_disarmed (fun () ->
      let p = tmp_path () in
      Vfs.arm
        (Vfs.Io_chaos.targeted ~op:Vfs.Rename ~path_substr:"exom_vfs_test"
           ~after:1 Vfs.Torn_rename);
      (match Vfs.write_file_atomic p "payload" with
      | Ok () -> Alcotest.fail "torn rename should report an error"
      | Error e ->
        Alcotest.(check bool) "torn-rename fault" true
          (e.Vfs.ve_fault = Some Vfs.Torn_rename);
        Vfs.ack e ~by:"test.io_failures");
      (* the rename itself happened: only durability was in doubt *)
      Alcotest.(check string) "destination renamed" "payload" (read_all p);
      Sys.remove p)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [ ( "vec",
        [ tc "push/get/set" test_vec_push_get;
          tc "bounds" test_vec_bounds;
          tc "iteration" test_vec_iteration;
          tc "clear" test_vec_clear ] );
      ( "union-find",
        [ tc "basic" test_uf_basic; tc "idempotent" test_uf_idempotent ] );
      ( "table",
        [ tc "render" test_table_render;
          tc "column mismatch" test_table_column_mismatch;
          tc "aligns mismatch" test_table_aligns_mismatch ] );
      ( "vfs",
        [ tc "plain roundtrip" test_vfs_plain_roundtrip;
          tc "real error typed" test_vfs_real_error_is_typed;
          tc "targeted fires once" test_vfs_targeted_fires_once;
          tc "seeded deterministic" test_vfs_seeded_deterministic;
          tc "per-path budget" test_vfs_per_path_budget;
          tc "torn rename renames" test_vfs_torn_rename_renames ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_vec_matches_list; prop_uf_equivalence ] ) ]
