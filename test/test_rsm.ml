(* Tests for the multi-shot RSM subsystem: log slot decisions, batching,
   duplicate suppression, and the total-order checker across backends,
   seeds and crash schedules. *)

module Backend = Rsm.Backend
module Group = Rsm.Group
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
   winner must be one of the non-empty proposers, and the same
   arguments must decide the same way. *)
let log_slot_decision backend () =
  let proposals = [ (0, [ "a" ]); (1, [ "b"; "c" ]); (2, []) ] in
  let decide () = Backend.decide_slot backend ~seed:7L ~slot:0 ~opener:0 proposals in
  let ((winner, instances, _) as first) = decide () in
  check Alcotest.bool "winner proposed non-empty" true (List.mem winner [ 0; 1 ]);
  check Alcotest.bool "consumed >= 1 backend instance" true (instances >= 1);
  check Alcotest.(triple int int int) "deterministic" first (decide ())

(* A lone proposer gets its own slot: one instance, which one input
   decides at no charge. *)
let log_single_proposer () =
  List.iter
    (fun b ->
      check
        Alcotest.(triple int int int)
        (Printf.sprintf "lone proposer wins (%s)" (backend_name b))
        (2, 1, 0)
        (Backend.decide_slot b ~seed:3L ~slot:5 ~opener:2 [ (2, [ "solo" ]) ]))
    Backend.all

(* --- group: duplicate suppression ---------------------------------------- *)

(* A machine with no state: the test watches only what the group orders. *)
let unit_machine =
  {
    Group.fresh = (fun () -> ());
    apply = (fun () _ -> ((), ()));
    snapshot = (fun () -> "");
    restore = (fun _ -> ());
    op_to_string = Fun.id;
    op_of_string = Fun.id;
    digest = (fun () -> "");
  }

(* [n] replicas of [unit_machine] on Ben-Or, without a store. *)
let unit_group eng ~n ~seed =
  Group.create ~engine:eng ~label:"" ~n ~backend:Backend.ben_or ~seed ~batch:4
    ~store:None ~machine:unit_machine
    ~on_first_apply:(fun _ () -> ())
    ~on_ready:(fun ~cid:_ -> ())

(* The same command id injected at two different replicas must be applied
   exactly once per replica, and the checker must stay clean. *)
let duplicate_suppression () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let g = unit_group eng ~n:3 ~seed:5L in
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      ignore (Group.submit g ~start:0 ~cid:7 "dup" : bool);
      ignore (Group.submit g ~start:1 ~cid:7 "dup" : bool);
      ignore (Group.submit g ~start:2 ~cid:8 "solo" : bool));
  Dsim.Engine.schedule eng ~delay:2_000 (fun () -> Group.stop g);
  let outcome = Dsim.Engine.run eng in
  check Alcotest.bool "quiescent" true (outcome = Dsim.Engine.Quiescent);
  let delivered = Group.delivered g in
  for pid = 0 to 2 do
    check Alcotest.int
      (Printf.sprintf "replica %d applied both commands exactly once" pid)
      2 delivered.(pid)
  done;
  check Alcotest.string "checker clean" ""
    (Fmt.str "%a" (Fmt.list Checker.pp_violation) (Group.violations g))

(* --- group: the quorum gate ------------------------------------------------ *)

(* A slot decides only on a side of a cut that holds a strict majority
   of the live replicas.  Five replicas are cut into [cut] and one
   command enters at replica 0; at time 1,000, while the cut still
   holds, the test reads what was decided and applied, then heals.
   [majority] is the side holding a majority, if any: it alone may have
   decided and applied the command by then.  After the heal every
   replica applies it. *)
let quorum_gate cut ~majority () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let g = unit_group eng ~n:5 ~seed:5L in
  let during = ref (-1, [||]) in
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      Group.partition g cut;
      ignore (Group.submit g ~start:0 ~cid:1 "cmd" : bool));
  Dsim.Engine.schedule eng ~delay:1_000 (fun () ->
      during := (Group.slots g, Group.delivered g);
      Group.heal g);
  Dsim.Engine.schedule eng ~delay:3_000 (fun () -> Group.stop g);
  let outcome = Dsim.Engine.run eng in
  check Alcotest.bool "quiescent" true (outcome = Dsim.Engine.Quiescent);
  let slots_during, delivered_during = !during in
  (match majority with
  | None ->
      check Alcotest.int "no slot decided while cut" 0 slots_during;
      Array.iteri
        (fun pid d ->
          check Alcotest.int (Printf.sprintf "replica %d applied while cut" pid) 0 d)
        delivered_during
  | Some side ->
      check Alcotest.int "one slot decided while cut" 1 slots_during;
      List.iter
        (fun pid ->
          check Alcotest.int
            (Printf.sprintf "majority replica %d applied while cut" pid)
            1 delivered_during.(pid))
        side);
  check Alcotest.int "one slot decided after heal" 1 (Group.slots g);
  Array.iteri
    (fun pid d ->
      check Alcotest.int (Printf.sprintf "replica %d applied after heal" pid) 1 d)
    (Group.delivered g);
  check Alcotest.string "checker clean" ""
    (Fmt.str "%a" (Fmt.list Checker.pp_violation) (Group.violations g))

(* A slot waits for the replicas the quorum gate names, and is released
   when a crash changes them.  Under a 2|2|1 cut nothing decides;
   crashing replicas 2 and 3 at time 500 leaves the side {0, 1} a
   majority of the live replicas, so the slot decides while the cut
   still holds, and both of them apply the command. *)
let log_waits_then_releases_on_crash () =
  let eng = Dsim.Engine.create ~seed:9L () in
  let g = unit_group eng ~n:5 ~seed:9L in
  let before = ref (-1) and after = ref [||] in
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      Group.partition g [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ];
      ignore (Group.submit g ~start:0 ~cid:1 "x" : bool));
  Dsim.Engine.schedule eng ~delay:500 (fun () ->
      before := Group.slots g;
      Group.crash g 2;
      Group.crash g 3);
  Dsim.Engine.schedule eng ~delay:1_000 (fun () ->
      after := Group.delivered g;
      Group.stop g);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.int "undecided while no side is a majority" 0 !before;
  check Alcotest.int "decided once the crashes leave a majority" 1 (Group.slots g);
  check Alcotest.(pair int int) "replicas 0 and 1 applied while cut" (1, 1)
    (!after.(0), !after.(1))

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

(* --- runner: the ack wait ------------------------------------------------ *)

(* The golden rsm runs (five replicas with a store, four clients of six
   commands, batch 4, seeds 1-5 on every backend), once at the default
   ack timeout and once at one no run reaches. *)
let golden_runs =
  lazy
    (List.concat_map
       (fun ack_timeout ->
         List.concat_map
           (fun backend ->
             List.map
               (fun seed ->
                 let ops =
                   Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:4
                     ~commands:6 ()
                 in
                 ( Printf.sprintf "%s/%d, timeout %d" (backend_name backend) seed
                     ack_timeout,
                   Runner.run kv_app
                     { (Test_golden.rsm_config ~backend ~seed ~ops) with ack_timeout } ))
               [ 1; 2; 3; 4; 5 ])
           Backend.all)
       [ 2_000; 100_000 ])

(* Nothing outlives the last client: at any ack timeout a fault-free run
   ends less than one deadline tick (10) after its last ack, so
   [virtual_time] is still the time the work ended. *)
let run_ends_at_last_ack () =
  List.iter
    (fun (what, (r : _ Runner.report)) ->
      let last =
        List.fold_left
          (fun m h -> Option.fold ~none:m ~some:(max m) h.Runner.h_returned)
          0 r.history
      in
      check Alcotest.int (what ^ ": all acked") 24 r.acked;
      check Alcotest.bool
        (Printf.sprintf "%s: ends at %d, last ack at %d" what r.virtual_time last)
        true
        (r.virtual_time - last < 10))
    (Lazy.force golden_runs)

(* An ack is signalled where the ack rule first holds, not found at the
   next 10-tick check, so some acks fall between the checks. *)
let acks_off_the_tick () =
  let off =
    List.fold_left
      (fun n (_, (r : _ Runner.report)) ->
        List.fold_left
          (fun n h ->
            match h.Runner.h_returned with Some t when t mod 10 <> 0 -> n + 1 | _ -> n)
          n r.history)
      0 (Lazy.force golden_runs)
  in
  check Alcotest.bool (Printf.sprintf "%d acks off the 10-tick grid" off) true (off > 0)

(* A command whose only copy is lost is re-submitted once its deadline
   passes.  Every broadcast is dropped and replica 1 crashes (losing its
   pending set) right after client 1 submitted to it, while it waits for
   slot 0; the tick expires the wait, the client re-submits through the
   next replica, 2, whose proposal carries the command. *)
let lost_command_resubmitted () =
  let ack_timeout = 300 in
  let r =
    Runner.run kv_app
      {
        (Runner.default_config ~n:3 ~ops:[| [ set "a" "1" ]; [ set "b" "2" ] |]) with
        ack_timeout;
        crash_schedule = [ (0, 1) ];
        inject = Some (fun g -> Group.set_policy g (fun _ -> Netsim.Async_net.Drop));
        store = Some Runner.default_store_config;
        max_events = 100_000;
      }
  in
  check Alcotest.int "both acked" 2 r.acked;
  no_violations r;
  let h = List.find (fun h -> h.Runner.h_client = 1) r.history in
  let returned = Option.value h.h_returned ~default:(-1) in
  check Alcotest.bool
    (Printf.sprintf "acked at %d, past the deadline %d" returned
       (h.h_invoked + ack_timeout))
    true
    (returned >= h.h_invoked + ack_timeout);
  check Alcotest.bool "replica 2 proposed it" true
    (List.exists
       (fun (ev : Dsim.Trace.event) ->
         ev.time >= ack_timeout
         && Astring_like.contains ev.detail "<- proposer 2 (1 cmds")
       (Dsim.Trace.events r.trace))

(* With no client nobody finishes last, so the group is stopped before
   the run starts and the run ends at once. *)
let no_clients () =
  let r = run [||] in
  check Test_engine.outcome_testable "quiescent" Dsim.Engine.Quiescent
    r.engine_outcome;
  check Alcotest.int "ends at 0" 0 r.virtual_time

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

(* Command ids pack the op index into 20 bits: the 2^20th op of a client
   would reuse an earlier id, so every replica would skip it as a
   duplicate while its client still got an ack.  The runner refuses
   such a list before simulating anything (the small event budget keeps
   a missing check from running a million ops). *)
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
        Alcotest.test_case "quorum gate stalls a 2|2|1 cut" `Quick
          (quorum_gate [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] ~majority:None);
        Alcotest.test_case "quorum gate lets a 3|2 majority decide" `Quick
          (quorum_gate [ [ 0; 1; 2 ]; [ 3; 4 ] ] ~majority:(Some [ 0; 1; 2 ]));
        Alcotest.test_case "batching amortizes consensus" `Quick batching_amortizes;
        Alcotest.test_case "cas replicated consistently" `Quick
          cas_replicated_consistently;
        Alcotest.test_case "rejects command-id overflow" `Quick
          rejects_cid_overflow;
        Alcotest.test_case "run ends within a tick of the last ack" `Quick
          run_ends_at_last_ack;
        Alcotest.test_case "acks fall between deadline ticks" `Quick acks_off_the_tick;
        Alcotest.test_case "lost command re-submitted at its deadline" `Quick
          lost_command_resubmitted;
        Alcotest.test_case "no clients" `Quick no_clients;
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
