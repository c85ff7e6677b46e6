(* Tests for the event-queue binary heap. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let pop_all heap =
  let rec go acc =
    match Dsim.Heap.pop heap with
    | None -> List.rev acc
    | Some (key, v) -> go ((key, v) :: acc)
  in
  go []

let empty_heap () =
  let h = Dsim.Heap.create () in
  check Alcotest.bool "is_empty" true (Dsim.Heap.is_empty h);
  check Alcotest.int "length" 0 (Dsim.Heap.length h);
  check Alcotest.bool "pop None" true (Dsim.Heap.pop h = None);
  check Alcotest.bool "peek None" true (Dsim.Heap.peek_key h = None)

let ordering () =
  let h = Dsim.Heap.create () in
  List.iter (fun k -> Dsim.Heap.add h ~key:k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted ascending"
    [ (0, 0); (1, 1); (1, 1); (3, 3); (4, 4); (5, 5); (9, 9) ]
    (pop_all h)

let fifo_on_ties () =
  let h = Dsim.Heap.create () in
  List.iteri (fun i label -> Dsim.Heap.add h ~key:(i mod 2) label)
    [ 10; 11; 12; 13; 14 ];
  (* keys: 10:0 11:1 12:0 13:1 14:0 — ties must pop in insertion order *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "insertion order within equal keys"
    [ (0, 10); (0, 12); (0, 14); (1, 11); (1, 13) ]
    (pop_all h)

let peek_does_not_remove () =
  let h = Dsim.Heap.create () in
  Dsim.Heap.add h ~key:3 0;
  Dsim.Heap.add h ~key:1 1;
  check (Alcotest.option Alcotest.int) "peek min" (Some 1) (Dsim.Heap.peek_key h);
  check Alcotest.int "length unchanged" 2 (Dsim.Heap.length h)

let interleaved () =
  let h = Dsim.Heap.create () in
  Dsim.Heap.add h ~key:10 3;
  Dsim.Heap.add h ~key:1 1;
  check Alcotest.bool "pop early" true (Dsim.Heap.pop h = Some (1, 1));
  Dsim.Heap.add h ~key:5 2;
  check Alcotest.bool "pop mid" true (Dsim.Heap.pop h = Some (5, 2));
  check Alcotest.bool "pop late" true (Dsim.Heap.pop h = Some (10, 3));
  check Alcotest.bool "empty again" true (Dsim.Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains keys in sorted order" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iter (fun k -> Dsim.Heap.add h ~key:k 0) keys;
      let drained = List.map fst (pop_all h) in
      drained = List.sort compare keys)

let prop_heap_stable_sort =
  (* Stronger than sortedness: payloads record insertion order, so this
     checks the insertion-order tie-break (the engine's FIFO guarantee
     for same-time events), not just nondecreasing keys. *)
  QCheck.Test.make ~name:"pop is a stable sort of (key, insertion index)"
    ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iteri (fun i k -> Dsim.Heap.add h ~key:k i) keys;
      let expected =
        List.stable_sort
          (fun (k1, _) (k2, _) -> compare k1 k2)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      pop_all h = expected)

let prop_heap_length =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iteri (fun i k -> Dsim.Heap.add h ~key:k i) keys;
      let n = List.length keys in
      let ok = ref (Dsim.Heap.length h = n) in
      for expected = n - 1 downto 0 do
        ignore (Dsim.Heap.pop h : (int * int) option);
        if Dsim.Heap.length h <> expected then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick empty_heap;
    Alcotest.test_case "ordering" `Quick ordering;
    Alcotest.test_case "FIFO on ties" `Quick fifo_on_ties;
    Alcotest.test_case "peek does not remove" `Quick peek_does_not_remove;
    Alcotest.test_case "interleaved add/pop" `Quick interleaved;
    qtest prop_heap_sorts;
    qtest prop_heap_stable_sort;
    qtest prop_heap_length;
  ]
