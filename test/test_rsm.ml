(* Tests for the multi-shot RSM subsystem: log slot decisions, batching,
   duplicate suppression, and the total-order checker across backends,
   seeds and crash schedules. *)

module Backend = Rsm.Backend
module Log = Rsm.Log
module Tob = Rsm.Tob
module App = Obj.Kv
module Checker = Rsm.Checker
module Runner = Rsm.Runner

let kv_app = Workload.Rsm_load.kv_app

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let backend_name b = Backend.name b

(* --- helpers ----------------------------------------------------------- *)

let set k v = App.Set (k, v)

let ops_of_n ~client n =
  List.init n (fun k -> set (Printf.sprintf "k%d-%d" client k) (string_of_int k))

let run ?(backend = Backend.ben_or) ?(n = 4) ?(batch = 4) ?(seed = 1)
    ?(crash_schedule = []) ops =
  Runner.run kv_app
    {
      (Runner.default_config ~n ~ops) with
      backend;
      batch;
      seed = Int64.of_int seed;
      crash_schedule;
    }

let no_violations ?(msg = "no violations") (r : _ Runner.report) =
  let show vs = Fmt.str "%a" (Fmt.list Checker.pp_violation) vs in
  check Alcotest.string (msg ^ " (order)") "" (show r.violations);
  check Alcotest.string (msg ^ " (completeness)") "" (show r.completeness);
  check Alcotest.bool (msg ^ " (digests)") true r.digests_agree

(* --- log: slot decision ------------------------------------------------ *)

(* Three replicas race proposals for slot 0 (one empty-handed): the
   decided batch must be one of the non-empty proposals and the same
   answer must be observable by everyone. *)
let log_slot_decision backend () =
  let eng = Dsim.Engine.create ~seed:7L () in
  let log =
    Log.create ~engine:eng ~backend ~seed:7L ~live:(fun () -> [ 0; 1; 2 ]) ()
  in
  Log.propose log ~slot:0 ~pid:0 ~batch:[ "a" ];
  Log.propose log ~slot:0 ~pid:1 ~batch:[ "b"; "c" ];
  Log.propose log ~slot:0 ~pid:2 ~batch:[];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:0 with
  | None -> Alcotest.fail "slot 0 undecided"
  | Some d ->
      check Alcotest.bool "winner proposed non-empty" true
        (List.mem d.Log.winner [ 0; 1 ]);
      let expected = if d.Log.winner = 0 then [ "a" ] else [ "b"; "c" ] in
      check Alcotest.(list string) "batch is the winner's" expected d.Log.batch;
      check Alcotest.bool "consumed >= 1 backend instance" true (d.Log.instances >= 1);
      check Alcotest.int "one slot decided" 1 (Log.decided_count log)

(* A lone live proposer gets its own batch back. *)
let log_single_proposer () =
  let eng = Dsim.Engine.create ~seed:3L () in
  let log =
    Log.create ~engine:eng ~backend:Backend.ben_or ~seed:3L
      ~live:(fun () -> [ 2 ]) ()
  in
  Log.propose log ~slot:5 ~pid:2 ~batch:[ "solo" ];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:5 with
  | Some { Log.winner = 2; batch = [ "solo" ]; _ } -> ()
  | _ -> Alcotest.fail "lone proposer must win its own slot"

(* A slot must wait for every live replica, and release when one of the
   awaited replicas crashes instead of proposing. *)
let log_waits_then_releases_on_crash () =
  let eng = Dsim.Engine.create ~seed:9L () in
  let crashed = ref false in
  let topology = Dsim.Engine.queue eng in
  let live () = if !crashed then [ 0 ] else [ 0; 1 ] in
  let log =
    Log.create ~engine:eng ~backend:Backend.ben_or ~seed:9L ~live ~topology ()
  in
  Log.propose log ~slot:0 ~pid:0 ~batch:[ "x" ];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.bool "undecided while replica 1 is awaited" true
    (Log.decided log ~slot:0 = None);
  Dsim.Engine.schedule eng ~delay:5 (fun () ->
      crashed := true;
      Dsim.Engine.signal topology);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:0 with
  | Some { Log.winner = 0; _ } -> ()
  | _ -> Alcotest.fail "slot must decide once the laggard crashes"

(* --- tob: duplicate suppression ---------------------------------------- *)

(* The same command id injected at two different replicas must be applied
   exactly once per replica, and the checker must stay clean. *)
let duplicate_suppression () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let net = Netsim.Async_net.create eng ~n:3 ~retain_inbox:false () in
  let live () =
    List.filter (fun p -> not (Netsim.Async_net.is_crashed net p)) [ 0; 1; 2 ]
  in
  let log = Log.create ~engine:eng ~backend:Backend.ben_or ~seed:5L ~live () in
  let checker = Checker.create () in
  Checker.record_submitted checker ~cid:7;
  Checker.record_submitted checker ~cid:8;
  let deliver ~pid ~slot (e : _ Tob.entry) =
    Checker.record_applied checker ~replica:pid ~slot ~cid:e.Tob.cid
  in
  let tob = Tob.create ~engine:eng ~net ~log ~batch:4 ~deliver () in
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      ignore (Tob.submit tob ~replica:0 { Tob.cid = 7; op = "dup" } : bool);
      ignore (Tob.submit tob ~replica:1 { Tob.cid = 7; op = "dup" } : bool);
      ignore (Tob.submit tob ~replica:2 { Tob.cid = 8; op = "solo" } : bool));
  Dsim.Engine.schedule eng ~delay:2_000 (fun () -> Tob.stop tob);
  let outcome = Dsim.Engine.run eng in
  check Alcotest.bool "quiescent" true (outcome = Dsim.Engine.Quiescent);
  for pid = 0 to 2 do
    check Alcotest.int
      (Printf.sprintf "replica %d applied both commands exactly once" pid)
      2
      (Tob.delivered_count tob ~pid)
  done;
  check Alcotest.string "checker clean" ""
    (Fmt.str "%a" (Fmt.list Checker.pp_violation) (Checker.check checker))

(* --- runner: batching -------------------------------------------------- *)

(* Fewer slots (and so fewer backend instances) with a larger batch, same
   commands delivered either way.  Batching only pays off under
   concurrency — closed-loop clients keep at most one command in flight
   each, so several of them must race. *)
let batching_amortizes () =
  let ops = Array.init 6 (fun c -> ops_of_n ~client:c 4) in
  let small = run ~batch:1 ops in
  let large = run ~batch:8 ops in
  no_violations ~msg:"batch=1" small;
  no_violations ~msg:"batch=8" large;
  check Alcotest.int "batch=1 acks all" 24 small.acked;
  check Alcotest.int "batch=8 acks all" 24 large.acked;
  check Alcotest.bool
    (Printf.sprintf "batch=8 uses fewer slots (%d < %d)" large.slots small.slots)
    true (large.slots < small.slots);
  check Alcotest.bool "batch=8 uses fewer backend instances" true
    (large.instances < small.instances)

(* --- runner: every backend, clean and crashy --------------------------- *)

let backend_clean_run backend () =
  let ops = Array.init 2 (fun c -> ops_of_n ~client:c 5) in
  let r = run ~backend ~n:4 ops in
  check Alcotest.bool "quiescent" true (r.engine_outcome = Dsim.Engine.Quiescent);
  check Alcotest.int "all acked" 10 r.acked;
  no_violations r

let backend_crash_run backend () =
  for seed = 1 to 5 do
    let ops = Array.init 2 (fun c -> ops_of_n ~client:c 4) in
    let r =
      run ~backend ~n:5 ~seed ~crash_schedule:[ (30, 1); (90, 3) ] ops
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: all acked despite crashes" seed)
      8 r.acked;
    no_violations ~msg:(Printf.sprintf "seed %d" seed) r
  done

(* Crash–restart (the recoverable model): replicas that crash and come
   back must catch up from the log's cached decisions — all commands
   acked, every replica (all live at the end) applies every command, and
   all digests agree. *)
let backend_crash_restart_run backend () =
  for seed = 1 to 3 do
    let ops = Array.init 2 (fun c -> ops_of_n ~client:c 4) in
    let crash_schedule, restart_schedule =
      Workload.Rsm_load.crash_restart_plan ~n:4 ~crashes:2 ~down_for:120 ()
    in
    let r =
      Runner.run kv_app
        {
          (Runner.default_config ~n:4 ~ops) with
          backend;
          batch = 4;
          seed = Int64.of_int seed;
          crash_schedule;
          restart_schedule;
        }
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: crash events" seed)
      2
      (List.length r.crashed);
    check Alcotest.int
      (Printf.sprintf "seed %d: restart events" seed)
      2
      (List.length r.restarted);
    check Alcotest.int
      (Printf.sprintf "seed %d: all acked across restarts" seed)
      8 r.acked;
    no_violations ~msg:(Printf.sprintf "seed %d" seed) r;
    (* Everyone is live at the end, so completeness + digests above cover
       the restarted replicas too; delivered counts must all match. *)
    Array.iter
      (fun d ->
        check Alcotest.int
          (Printf.sprintf "seed %d: every replica applied everything" seed)
          r.delivered.(0) d)
      r.delivered
  done

(* CAS commands must resolve identically everywhere: total order makes the
   winner deterministic per run, and digests already catch divergence. *)
let cas_replicated_consistently () =
  let contended c =
    [
      App.Cas { key = "lock"; expect = None; update = Printf.sprintf "c%d" c };
      set (Printf.sprintf "after%d" c) "1";
    ]
  in
  let r = run ~n:3 [| contended 0; contended 1; contended 2 |] in
  no_violations r;
  check Alcotest.int "all acked" 6 r.acked

(* --- property: total order across seeds, crashes and backends ---------- *)

let prop_total_order =
  QCheck.Test.make ~name:"rsm total order across seeds/crashes/backends" ~count:24
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 0 2) (int_range 1 4) (int_range 0 1))
    (fun (seed, backend_ix, batch, crashes) ->
      let backend = List.nth Backend.all backend_ix in
      let n = 4 in
      let ops = Array.init 2 (fun c -> ops_of_n ~client:c 3) in
      let crash_schedule = List.init crashes (fun k -> (25 + (40 * k), k)) in
      let r = run ~backend ~n ~batch ~seed ~crash_schedule ops in
      r.violations = [] && r.completeness = [] && r.digests_agree
      && r.acked = 6)

(* --- runner: same-tick batching is pure mechanism ---------------------- *)

(* The engine's same-tick batch draining must be invisible at the
   protocol level: a seeded run gives a byte-identical structured trace
   and the same checker verdicts with it on or off. *)
let batching_invariance () =
  let run_with ~label ~batching =
    let ops = Array.init 3 (fun c -> ops_of_n ~client:c 4) in
    let r =
      Runner.run kv_app
        {
          (Runner.default_config ~n:4 ~ops) with
          seed = 11L;
          batching;
        }
    in
    no_violations ~msg:label r;
    check Alcotest.int (label ^ " acks all") 12 r.acked;
    ( Digest.to_hex (Digest.string (Fmt.str "%a" Dsim.Trace.dump r.trace)),
      r.slots,
      r.messages_delivered )
  in
  let fingerprint =
    Alcotest.triple Alcotest.string Alcotest.int Alcotest.int
  in
  check fingerprint "batching off"
    (run_with ~label:"batching on" ~batching:true)
    (run_with ~label:"batching off" ~batching:false)

(* Command ids pack the op index into 20 bits: the 2^20th op of a client
   would reuse an earlier id, so Tob would drop it as a duplicate while
   its client still got an ack.  The runner refuses such a list before
   simulating anything (the small event budget keeps a missing check
   from running a million ops). *)
let rejects_cid_overflow () =
  let ops = [| [ set "a" "1" ]; List.init (1 lsl 20) (fun _ -> set "b" "2") |] in
  Alcotest.check_raises "2^20 ops from one client"
    (Invalid_argument "Runner.run: a client has 2^20 or more ops") (fun () ->
      ignore
        (Runner.run kv_app
           { (Runner.default_config ~n:3 ~ops) with max_events = 1_000 }
          : _ Runner.report))

let suite =
  List.concat
    [
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "log slot decision (%s)" (backend_name b))
            `Quick (log_slot_decision b))
        Backend.all;
      [
        Alcotest.test_case "log single proposer" `Quick log_single_proposer;
        Alcotest.test_case "log releases on crash" `Quick
          log_waits_then_releases_on_crash;
        Alcotest.test_case "duplicate suppression" `Quick duplicate_suppression;
        Alcotest.test_case "batching amortizes consensus" `Quick batching_amortizes;
        Alcotest.test_case "batching invariance" `Quick batching_invariance;
        Alcotest.test_case "cas replicated consistently" `Quick
          cas_replicated_consistently;
        Alcotest.test_case "rejects command-id overflow" `Quick
          rejects_cid_overflow;
      ];
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "clean run (%s)" (backend_name b))
            `Quick (backend_clean_run b))
        Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "crash tolerance (%s)" (backend_name b))
            `Quick (backend_crash_run b))
        Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "crash-restart recovery (%s)" (backend_name b))
            `Quick (backend_crash_restart_run b))
        Backend.all;
      [ qtest prop_total_order ];
    ]
