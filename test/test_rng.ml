(* Unit and property tests for the splitmix64 generator. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let determinism () =
  let a = Dsim.Rng.create 42L and b = Dsim.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Dsim.Rng.next_int64 a)
      (Dsim.Rng.next_int64 b)
  done

let different_seeds () =
  let a = Dsim.Rng.create 1L and b = Dsim.Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Dsim.Rng.next_int64 a = Dsim.Rng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams diverge" true (!same < 3)

let copy_freezes_state () =
  let a = Dsim.Rng.create 7L in
  ignore (Dsim.Rng.next_int64 a : int64);
  let b = Dsim.Rng.copy a in
  check Alcotest.int64 "copies replay identically" (Dsim.Rng.next_int64 a)
    (Dsim.Rng.next_int64 b)

let split_independence () =
  let parent = Dsim.Rng.create 3L in
  let child = Dsim.Rng.split parent in
  let child_vals = List.init 50 (fun _ -> Dsim.Rng.next_int64 child) in
  let parent_vals = List.init 50 (fun _ -> Dsim.Rng.next_int64 parent) in
  check Alcotest.bool "child differs from parent" true (child_vals <> parent_vals)

let split_deterministic () =
  let mk () =
    let p = Dsim.Rng.create 9L in
    let c1 = Dsim.Rng.split p in
    let c2 = Dsim.Rng.split p in
    (Dsim.Rng.next_int64 c1, Dsim.Rng.next_int64 c2)
  in
  check
    (Alcotest.pair Alcotest.int64 Alcotest.int64)
    "same splits from same seed" (mk ()) (mk ())

let int_rejects_bad_bound () =
  let r = Dsim.Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dsim.Rng.int r 0 : int));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Dsim.Rng.int r (-5) : int))

let int_in_rejects_empty_range () =
  let r = Dsim.Rng.create 1L in
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Dsim.Rng.int_in r 5 4 : int))

let bool_is_roughly_fair () =
  let r = Dsim.Rng.create 5L in
  let trues = ref 0 in
  let trials = 10_000 in
  for _ = 1 to trials do
    if Dsim.Rng.bool r then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int trials in
  check Alcotest.bool "between 45% and 55%" true (ratio > 0.45 && ratio < 0.55)

let exponential_positive () =
  let r = Dsim.Rng.create 6L in
  for _ = 1 to 1000 do
    let x = Dsim.Rng.exponential r ~mean:10.0 in
    check Alcotest.bool "non-negative" true (x >= 0.0)
  done

let exponential_mean_close () =
  let r = Dsim.Rng.create 8L in
  let trials = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    sum := !sum +. Dsim.Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int trials in
  check Alcotest.bool "mean within 10%" true (mean > 9.0 && mean < 11.0)

let pick_raises_on_empty () =
  let r = Dsim.Rng.create 1L in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Dsim.Rng.pick r [||] : int));
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Dsim.Rng.pick_list r [] : int))

(* Known answers.  The first five outputs for seed 1234567 are those of
   Vigna's reference splitmix64.c; the recorded draws pin how each
   derived sampler consumes the stream, so a change of representation
   must reproduce every simulation's randomness exactly. *)
let u64 s = Int64.of_string ("0u" ^ s)

let reference_splitmix64 () =
  let r = Dsim.Rng.create 1234567L in
  List.iter
    (fun expected ->
      check Alcotest.int64 ("output " ^ expected) (u64 expected)
        (Dsim.Rng.next_int64 r))
    [
      "6457827717110365317";
      "3203168211198807973";
      "9817491932198370423";
      "4593380528125082431";
      "16408922859458223821";
    ]

let recorded_draws () =
  let ints = Alcotest.(list int) in
  let r = Dsim.Rng.create 42L in
  let draw n f = List.init n (fun _ -> f ()) in
  check ints "bits" [ 796249225; 171702476; 299145685 ]
    (draw 3 (fun () -> Dsim.Rng.bits r));
  check ints "int 10" [ 7; 2; 8; 1 ] (draw 4 (fun () -> Dsim.Rng.int r 10));
  check ints "int 2^40" [ 531093752809; 127822421877 ]
    (draw 2 (fun () -> Dsim.Rng.int r (1 lsl 40)));
  check ints "int_in -5 5" [ 4; 1; 2; -3 ]
    (draw 4 (fun () -> Dsim.Rng.int_in r (-5) 5));
  check Alcotest.(list bool) "bool"
    [ true; false; false; true; true; true ]
    (draw 6 (fun () -> Dsim.Rng.bool r));
  check Alcotest.(list (float 0.)) "float 1.0"
    [ 0x1.60bd943452e57p-1; 0x1.ea268896c8ab4p-1; 0x1.2b3a6dd261f68p-4 ]
    (draw 3 (fun () -> Dsim.Rng.float r 1.0));
  let child = Dsim.Rng.split r in
  check Alcotest.(list int64) "split child"
    [ u64 "13632193702353699352"; u64 "11898010535462999091" ]
    (draw 2 (fun () -> Dsim.Rng.next_int64 child));
  check Alcotest.int64 "split parent" (u64 "11433643108797302929")
    (Dsim.Rng.next_int64 r)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int is within [0, bound)" ~count:1000
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Dsim.Rng.create seed in
      let v = Dsim.Rng.int r bound in
      v >= 0 && v < bound)

let prop_int_in_range =
  QCheck.Test.make ~name:"int_in is within [lo, hi]" ~count:1000
    QCheck.(triple int64 (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, width) ->
      let r = Dsim.Rng.create seed in
      let v = Dsim.Rng.int_in r lo (lo + width) in
      v >= lo && v <= lo + width)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:300
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let r = Dsim.Rng.create seed in
      let shuffled = Dsim.Rng.shuffle_list r l in
      List.sort compare shuffled = List.sort compare l)

let prop_float_bounds =
  QCheck.Test.make ~name:"float stays in [0, bound)" ~count:1000 QCheck.int64
    (fun seed ->
      let r = Dsim.Rng.create seed in
      let v = Dsim.Rng.float r 3.5 in
      v >= 0.0 && v < 3.5)

let suite =
  [
    Alcotest.test_case "determinism" `Quick determinism;
    Alcotest.test_case "different seeds diverge" `Quick different_seeds;
    Alcotest.test_case "copy freezes state" `Quick copy_freezes_state;
    Alcotest.test_case "split independence" `Quick split_independence;
    Alcotest.test_case "split deterministic" `Quick split_deterministic;
    Alcotest.test_case "int rejects bad bound" `Quick int_rejects_bad_bound;
    Alcotest.test_case "int_in rejects empty range" `Quick int_in_rejects_empty_range;
    Alcotest.test_case "bool roughly fair" `Quick bool_is_roughly_fair;
    Alcotest.test_case "exponential positive" `Quick exponential_positive;
    Alcotest.test_case "exponential mean" `Quick exponential_mean_close;
    Alcotest.test_case "pick raises on empty" `Quick pick_raises_on_empty;
    Alcotest.test_case "reference splitmix64 outputs" `Quick reference_splitmix64;
    Alcotest.test_case "recorded draws" `Quick recorded_draws;
    qtest prop_int_in_bounds;
    qtest prop_int_in_range;
    qtest prop_shuffle_is_permutation;
    qtest prop_float_bounds;
  ]
