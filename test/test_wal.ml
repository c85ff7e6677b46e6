(* Tests for the on-disk text format: the two [Store.Codec] primitives
   against the [Printf] conversions they replace, byte for byte, and
   [Rsm.Wal]'s documented record and snapshot formats and recovery
   rules, on hand-written disks. *)

module Codec = Store.Codec
module Disk = Store.Disk
module Wal = Rsm.Wal

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Store.Codec --------------------------------------------------------- *)

let edge_ints =
  [ 0; 1; -1; 9; 10; -9; -10; 99; 100; -100; max_int; min_int; max_int - 1; min_int + 1 ]

let prop_int =
  QCheck.Test.make ~name:"Codec.int is string_of_int" ~count:2000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         frequency [ (4, int); (4, small_signed_int); (1, oneofl edge_ints) ]))
    (fun n -> String.equal (Codec.int n) (string_of_int n))

let int_edges () =
  List.iter
    (fun n -> check Alcotest.string (string_of_int n) (string_of_int n) (Codec.int n))
    edge_ints

let specials = [ '"'; '\\'; '\n'; '\t' ]

let prop_quoted =
  QCheck.Test.make ~name:"Codec.quoted is Printf %S" ~count:2000
    QCheck.(
      string_of Gen.(frequency [ (3, char); (3, printable); (1, oneofl specials) ]))
    (fun s -> String.equal (Codec.quoted s) (Printf.sprintf "%S" s))

(* Every byte value, alone and all together, the characters with named
   escapes, and the empty string. *)
let quoted_edges () =
  let cases =
    ("" :: String.init 256 Char.chr :: List.map (String.make 1) specials)
    @ List.init 256 (fun c -> String.make 1 (Char.chr c))
  in
  List.iter
    (fun s ->
      let want = Printf.sprintf "%S" s in
      check Alcotest.string want want (Codec.quoted s))
    cases

(* --- Rsm.Wal formats ------------------------------------------------------ *)

let entry slot cid op =
  Wal.encode_entry ~op_to_string:Fun.id slot { Wal.cid; op }

let commit = Wal.encode_commit

let record_formats () =
  check Alcotest.string "entry: E <slot> <cid> <op>" "E 3 17 S \"k\" \"a b\""
    (Wal.encode_entry ~op_to_string:Obj.Kv.op_to_string 3
       { Wal.cid = 17; op = Obj.Kv.Set ("k", "a b") });
  check Alcotest.string "commit: C <slot> <winner>" "C 3 2" (commit 3 2);
  check Alcotest.string "snapshot: upto, state, cids" "5\n1 \"x\"\n1,2,30"
    (Wal.encode_snapshot ~upto:5 ~state:"1 \"x\"" ~cids:[ 1; 2; 30 ]);
  check Alcotest.string "snapshot with no cids" "5\nst\n"
    (Wal.encode_snapshot ~upto:5 ~state:"st" ~cids:[])

(* --- Rsm.Wal.recover ------------------------------------------------------ *)

(* A disk holding [snapshot] (if any), then [records] fsynced in order;
   a record listed in [torn] is appended inside a torn-write window. *)
let disk_of ?snapshot ?(torn = []) records =
  let eng = Dsim.Engine.create ~seed:1L () in
  let policy = ref Store.Policy.none in
  let d = Disk.create ~engine:eng ~pid:0 ~policy:(fun () -> !policy) () in
  Option.iter
    (fun (upto, state, cids) ->
      match
        Disk.save_snapshot d ~upto (Wal.encode_snapshot ~upto ~state ~cids) ~k:ignore
      with
      | Ok () -> ()
      | Error `Io_error -> Alcotest.fail "snapshot refused")
    snapshot;
  List.iter
    (fun r ->
      policy :=
        if List.mem r torn then
          { Store.Policy.none with torn = [ Store.Policy.rule ~from_:0 ~until_:1 () ] }
        else Store.Policy.none;
      match Disk.append d r with
      | Ok _ -> ()
      | Error `Io_error -> Alcotest.fail "append refused")
    records;
  (match Disk.fsync d ~k:ignore with
  | Ok () -> ()
  | Error `Io_error -> Alcotest.fail "fsync refused");
  d

let slots_t = Alcotest.(list (triple int int (list (pair int string))))

let check_recovered ?snap ~slots ~next ~cids d =
  let r = Wal.recover ~op_of_string:Fun.id d in
  check
    Alcotest.(option (triple int string (list int)))
    "snapshot" snap r.Wal.r_snap;
  check slots_t "committed slots"
    slots
    (List.map
       (fun (s, w, es) ->
         (s, w, List.map (fun (e : _ Wal.entry) -> (e.cid, e.op)) es))
       r.r_slots);
  check Alcotest.int "next slot" next r.r_next_slot;
  check Alcotest.(list int) "delivered cids" cids r.r_cids

let only_committed_slots () =
  disk_of [ entry 0 1 "a"; commit 0 0; entry 1 2 "b" ]
  |> check_recovered ~slots:[ (0, 0, [ (1, "a") ]) ] ~next:1 ~cids:[ 1 ]

let first_gap_ends_prefix () =
  disk_of [ entry 0 1 "a"; commit 0 0; entry 2 3 "c"; commit 2 1 ]
  |> check_recovered
       ~slots:[ (0, 0, [ (1, "a") ]); (2, 1, [ (3, "c") ]) ]
       ~next:1 ~cids:[ 1 ]

let slot_appended_twice () =
  let slot0 = [ entry 0 1 "a"; entry 0 2 "b"; commit 0 0 ] in
  disk_of (slot0 @ slot0)
  |> check_recovered ~slots:[ (0, 0, [ (1, "a"); (2, "b") ]) ] ~next:1 ~cids:[ 1; 2 ]

let snapshot_covers_records () =
  disk_of ~snapshot:(1, "st", [ 1; 2 ])
    [ entry 0 1 "a"; commit 0 0; entry 1 2 "b"; commit 1 0; entry 2 3 "c"; commit 2 4 ]
  |> check_recovered ~snap:(1, "st", [ 1; 2 ]) ~slots:[ (2, 4, [ (3, "c") ]) ]
       ~next:3 ~cids:[ 1; 2; 3 ];
  disk_of ~snapshot:(0, "st", []) [ entry 1 5 "e"; commit 1 0 ]
  |> check_recovered ~snap:(0, "st", []) ~slots:[ (1, 0, [ (5, "e") ]) ] ~next:2
       ~cids:[ 5 ]

let torn_record_cuts_read_back () =
  let torn = entry 1 2 "b" in
  disk_of ~torn:[ torn ]
    [ entry 0 1 "a"; commit 0 0; torn; commit 1 0; entry 2 3 "c"; commit 2 0 ]
  |> check_recovered ~slots:[ (0, 0, [ (1, "a") ]) ] ~next:1 ~cids:[ 1 ]

let suite =
  [
    qtest prop_int;
    Alcotest.test_case "Codec.int edge values" `Quick int_edges;
    qtest prop_quoted;
    Alcotest.test_case "Codec.quoted every byte" `Quick quoted_edges;
    Alcotest.test_case "record and snapshot formats" `Quick record_formats;
    Alcotest.test_case "recover trusts committed slots only" `Quick
      only_committed_slots;
    Alcotest.test_case "recover stops the prefix at a gap" `Quick
      first_gap_ends_prefix;
    Alcotest.test_case "recover replays a retried slot once" `Quick
      slot_appended_twice;
    Alcotest.test_case "recover skips what the snapshot covers" `Quick
      snapshot_covers_records;
    Alcotest.test_case "recover stops at a torn record" `Quick
      torn_record_cuts_read_back;
  ]
