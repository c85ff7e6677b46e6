(* Tests for the engine's event queue, {!Dsim.Equeue}: a one-level
   timing wheel of one-tick buckets (the ring) in front of a binary heap.
   Its contract is a single heap's: (key, insertion-seq) order and the
   same tie sets, whichever part an entry lives in.  The engine's
   determinism rests on exactly the equivalence checked here. *)

module Q = Dsim.Equeue

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let pop_all q =
  let rec go acc =
    match Q.pop q with None -> List.rev acc | Some (key, v) -> go ((key, v) :: acc)
  in
  go []

let kv_list = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)
let ints = Alcotest.list Alcotest.int

let empty_queue () =
  let q = Q.create () in
  check Alcotest.bool "is_empty" true (Q.is_empty q);
  check Alcotest.int "length" 0 (Q.length q);
  check Alcotest.bool "pop None" true (Q.pop q = None);
  check Alcotest.bool "peek None" true (Q.peek_key q = None);
  check Alcotest.int "no seq yet" (-1) (Q.last_seq q)

let ordering_across_levels () =
  (* In the first window, at its edge, far beyond it (heap), and
     negative (below the floor, heap). *)
  let keys = [ 3; 63; 64; 65; 1_000; 5; 70_000; -2; 0 ] in
  let q = Q.create () in
  List.iteri (fun i k -> Q.add q ~key:k i) keys;
  let expected =
    List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2) (List.mapi (fun i k -> (k, i)) keys)
  in
  check kv_list "sorted across ring and heap" expected (pop_all q)

let fifo_on_ties () =
  let q = Q.create () in
  List.iteri (fun i label -> Q.add q ~key:(if i mod 2 = 0 then 7 else 9) label) [ 10; 11; 12; 13; 14 ];
  check kv_list "insertion order within equal keys"
    [ (7, 10); (7, 12); (7, 14); (9, 11); (9, 13) ]
    (pop_all q)

let keys_below_the_floor () =
  let q = Q.create () in
  Q.add q ~key:100 1;
  check Alcotest.bool "pop" true (Q.pop q = Some (100, 1));
  (* the floor is now 100: these go to the heap and still sort first *)
  Q.add q ~key:120 2;
  Q.add q ~key:99 3;
  Q.add q ~key:100 4;
  Q.add q ~key:50 5;
  check kv_list "below-floor keys pop in order"
    [ (50, 5); (99, 3); (100, 4); (120, 2) ]
    (pop_all q)

let split_ties_pop_heap_first () =
  (* Key 80 enters the heap (beyond the first window), the floor rises
     to 30, and key 80 is then added to the ring: the heap entry is the
     older one and must come first — in pops and tie sets. *)
  let q = Q.create () in
  Q.add q ~key:80 0;
  Q.add q ~key:30 1;
  check Alcotest.bool "pop 30" true (Q.pop q = Some (30, 1));
  Q.add q ~key:80 2;
  Q.add q ~key:80 3;
  check ints "seqs" [ 0; 2; 3 ] (Q.min_key_seqs q);
  check ints "values" [ 0; 2; 3 ] (Q.min_key_values q);
  check Alcotest.int "count" 3 (Q.min_key_count q);
  check kv_list "pops" [ (80, 0); (80, 2); (80, 3) ] (pop_all q)

let drain_then_reuse () =
  (* Ring entries (their keys recovered from the floor, which is not a
     multiple of the width) and heap entries all go in one pass; later
     adds keep numbering and pop as usual. *)
  let q = Q.create () in
  Q.add q ~key:100 0;
  check Alcotest.bool "pop raises the floor" true (Q.pop q = Some (100, 0));
  List.iter (fun (k, v) -> Q.add q ~key:k v) [ (130, 1); (101, 2); (40, 3); (101, 4) ];
  let seen = ref [] in
  check Alcotest.int "largest key, from the ring" 130
    (Q.drain q (fun v -> seen := v :: !seen));
  check ints "every value once" [ 1; 2; 3; 4 ] (List.sort compare !seen);
  check Alcotest.bool "empty" true (Q.is_empty q);
  check Alcotest.int "empty drain" min_int (Q.drain q (fun _ -> assert false));
  check Alcotest.int "seqs continue" 4 (Q.last_seq q);
  List.iter (fun (k, v) -> Q.add q ~key:k v) [ (120, 5); (101, 6); (120, 7); (9_000, 8) ];
  check Alcotest.int "next seq" 8 (Q.last_seq q);
  check kv_list "pops in order after a drain"
    [ (101, 6); (120, 5); (120, 7); (9_000, 8) ]
    (pop_all q);
  List.iter (fun (k, v) -> Q.add q ~key:k v) [ (9_100, 9); (9_001, 10); (10_000, 11) ];
  check Alcotest.int "largest key, from the heap" 10_000 (Q.drain q ignore)

let tie_set_operations () =
  let q = Q.create () in
  List.iteri (fun i k -> Q.add q ~key:k i) [ 5; 9; 5; 5; 12 ];
  check Alcotest.int "min_key_count" 3 (Q.min_key_count q);
  check ints "min_key_values in seq order" [ 0; 2; 3 ] (Q.min_key_values q);
  (* remove the middle of the tie set; the rest keeps its order *)
  check Alcotest.bool "pop_min_nth 1" true (Q.pop_min_nth q 1 = Some (5, 2));
  check ints "tie set after interior removal" [ 0; 3 ] (Q.min_key_values q);
  Alcotest.check_raises "nth outside tied range"
    (Invalid_argument "Equeue.pop_min_nth: index out of tied range") (fun () ->
      ignore (Q.pop_min_nth q 2 : (int * int) option))

(* --- the queue against a reference model ------------------------------ *)

(* The model is a list of (key, seq, value) kept sorted by (key, seq),
   with its own seq counter, which a drain keeps.  Added keys are drawn
   relative to the floor (the largest key popped so far): inside the
   window, around its far edge, beyond it and below the floor, so
   entries land in both parts and equal keys end up split between
   them. *)
type op =
  | Add of int * int  (* offset from the floor, value *)
  | Pop
  | Count
  | Values
  | Seqs
  | Pop_nth of int
  | Last_seq
  | Repost  (* the engine's time-limit putback: pop, re-add the same key *)
  | Drain

let gen_op =
  QCheck.Gen.(
    int_range 0 99 >>= fun sel ->
    if sel < 40 then
      frequency
        [ (4, int_range 0 8); (2, int_range 58 70); (1, int_range 71 200); (2, int_range (-80) (-1)) ]
      >>= fun off -> small_nat >>= fun v -> return (Add (off, v))
    else if sel < 62 then return Pop
    else if sel < 66 then return Count
    else if sel < 70 then return Values
    else if sel < 74 then return Seqs
    else if sel < 84 then small_nat >>= fun n -> return (Pop_nth n)
    else if sel < 88 then return Last_seq
    else if sel < 95 then return Repost
    else return Drain)

let show_op = function
  | Add (off, v) -> Printf.sprintf "add(floor%+d,%d)" off v
  | Pop -> "pop"
  | Count -> "count"
  | Values -> "values"
  | Seqs -> "seqs"
  | Pop_nth n -> Printf.sprintf "pop_nth %d" n
  | Last_seq -> "last_seq"
  | Repost -> "repost"
  | Drain -> "drain"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 150) gen_op)

let prop_matches_model =
  QCheck.Test.make ~name:"queue matches a sorted-list model" ~count:500 arb_ops (fun ops ->
      let q = Q.create () in
      let model = ref [] and next_seq = ref 0 and floor = ref 0 in
      let ok = ref true in
      let agree a b = if a <> b then ok := false in
      let m_add key v =
        let e = (key, !next_seq, v) in
        incr next_seq;
        model := List.merge compare !model [ e ]
      in
      let tie () =
        match !model with [] -> [] | (k, _, _) :: _ -> List.filter (fun (k', _, _) -> k' = k) !model
      in
      let remove ((k, _, _) as e) =
        model := List.filter (fun e' -> e' != e) !model;
        if k > !floor then floor := k
      in
      let m_pop () = match !model with [] -> None | ((k, _, v) as e) :: _ -> remove e; Some (k, v) in
      List.iter
        (fun op ->
          match op with
          | Add (off, v) ->
              let key = !floor + off in
              Q.add q ~key v;
              m_add key v
          | Pop -> agree (Q.pop q) (m_pop ())
          | Count -> agree (Q.min_key_count q) (List.length (tie ()))
          | Values -> agree (Q.min_key_values q) (List.map (fun (_, _, v) -> v) (tie ()))
          | Seqs -> agree (Q.min_key_seqs q) (List.map (fun (_, s, _) -> s) (tie ()))
          | Pop_nth n -> (
              match tie () with
              | [] -> agree (Q.pop_min_nth q n) None
              | ts when n < List.length ts ->
                  let ((k, _, v) as e) = List.nth ts n in
                  remove e;
                  agree (Q.pop_min_nth q n) (Some (k, v))
              | _ -> (
                  match Q.pop_min_nth q n with
                  | exception Invalid_argument _ -> ()
                  | _ -> ok := false))
          | Last_seq -> agree (Q.last_seq q) (!next_seq - 1)
          | Repost -> (
              match (Q.pop q, m_pop ()) with
              | Some (k, v), (Some (k', v') as m) ->
                  agree (Some (k, v)) m;
                  Q.add q ~key:k v;
                  m_add k' v'
              | a, b -> agree a b)
          | Drain ->
              let seen = ref [] in
              let last = Q.drain q (fun v -> seen := v :: !seen) in
              agree last (List.fold_left (fun m (k, _, _) -> max m k) min_int !model);
              agree (List.sort compare !seen)
                (List.sort compare (List.map (fun (_, _, v) -> v) !model));
              model := [])
        ops;
      agree (Q.length q) (List.length !model);
      (* drain both and compare the full pop sequence *)
      let rec drain () =
        let a = Q.pop q in
        agree a (m_pop ());
        if a <> None then drain ()
      in
      drain ();
      !ok)

let suite =
  [
    Alcotest.test_case "empty wheel" `Quick empty_queue;
    Alcotest.test_case "ordering across levels" `Quick ordering_across_levels;
    Alcotest.test_case "FIFO on ties" `Quick fifo_on_ties;
    Alcotest.test_case "keys below the floor" `Quick keys_below_the_floor;
    Alcotest.test_case "ties split heap first" `Quick split_ties_pop_heap_first;
    Alcotest.test_case "drain then reuse" `Quick drain_then_reuse;
    Alcotest.test_case "tie-set operations" `Quick tie_set_operations;
    qtest prop_matches_model;
  ]
